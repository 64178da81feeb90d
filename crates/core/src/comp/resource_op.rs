//! Typed resource operations: the paper's invariant that every forward
//! resource effect carries its compensating operation (§4.4.1), enforced by
//! the type system instead of programmer discipline.
//!
//! A [`ResourceOp`] is a typed description of one forward operation on a
//! resource manager: it knows its target resource, its wire-level operation
//! name, how to encode its parameters, and how to decode its result. A
//! [`Compensable`] op additionally derives its compensating [`CompOp`] from
//! itself *and its result* — so the platform can execute the forward call
//! and log its compensation atomically in one `ctx.invoke(op)` call.
//!
//! Neither trait states an entry kind (§4.4.1: RCE / ACE / MCE). The kind is
//! a property of the compensating operation, so it is said once, where its
//! handler is registered ([`CompOpRegistry::register`]); the platform looks
//! it up when it logs the entry, and the registry grants access from the
//! same record when it runs it.
//!
//! [`WroOp`] is the agent-state analogue: a typed mutation of the weakly
//! reversible objects that derives its agent compensation entry (ACE) from
//! the state it replaces.
//!
//! The raw `ctx.call` + `ctx.compensate` pair remains available as the
//! escape hatch for operations without a typed wrapper; the platform's
//! property tests pin that a typed invocation and the equivalent raw pair
//! produce byte-identical rollback-log frames.
//!
//! [`CompOpRegistry::register`]: crate::comp::CompOpRegistry::register

use mar_wire::{Value, WireError};

use crate::comp::op::CompOp;
use crate::data::DataSpace;

/// A typed forward operation against a resource manager.
///
/// Implementations are plain structs whose fields are the operation's
/// parameters; [`params`](ResourceOp::params) encodes them into the same
/// [`Value`] map a raw `ctx.call` would pass, and
/// [`decode`](ResourceOp::decode) turns the raw result back into
/// [`Output`](ResourceOp::Output).
pub trait ResourceOp {
    /// The decoded result of the operation.
    type Output;

    /// Name of the target resource manager (node-local).
    fn resource(&self) -> &str;

    /// Wire-level operation name on that resource.
    fn op(&self) -> &str;

    /// Encodes the parameters exactly as the equivalent raw call would.
    fn params(&self) -> Value;

    /// Decodes the raw operation result.
    ///
    /// # Errors
    ///
    /// Codec errors when the resource returned a shape this op does not
    /// expect (a wiring bug, not a business refusal).
    fn decode(&self, raw: &Value) -> Result<Self::Output, WireError>;
}

/// A [`ResourceOp`] whose committed effect has a compensating operation.
///
/// The compensation is derived from the op *and its result* — e.g. a flight
/// booking's compensation needs the `booking_id` the forward call returned.
///
/// Contract: `compensation(..)` must name a handler registered in the
/// platform's [`CompOpRegistry`](crate::comp::CompOpRegistry); its entry
/// kind is the one it was registered under.
pub trait Compensable: ResourceOp {
    /// Derives the compensating operation from the op and its result.
    fn compensation(&self, output: &Self::Output) -> CompOp;
}

/// A typed mutation of the agent's weakly reversible objects that derives
/// its agent compensation entry from the state it replaces.
///
/// Where [`Compensable`] pairs a *resource* effect with its compensation,
/// a `WroOp` pairs a *WRO* write with the ACE that semantically undoes it —
/// applied and logged in one `ctx.apply(op)` call. The compensations it
/// derives are registered as agent compensation entries (ACEs).
pub trait WroOp {
    /// The decoded result of the mutation (usually `()` or a before-image).
    type Output;

    /// Applies the mutation to the data space and returns the result plus
    /// the compensating operation.
    fn apply(&self, data: &mut DataSpace) -> (Self::Output, CompOp);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ping {
        target: String,
        n: i64,
    }

    impl ResourceOp for Ping {
        type Output = i64;

        fn resource(&self) -> &str {
            &self.target
        }

        fn op(&self) -> &str {
            "ping"
        }

        fn params(&self) -> Value {
            Value::map([("n", Value::from(self.n))])
        }

        fn decode(&self, raw: &Value) -> Result<i64, WireError> {
            raw.as_i64()
                .ok_or_else(|| WireError::Message("not an integer".to_owned()))
        }
    }

    impl Compensable for Ping {
        fn compensation(&self, output: &i64) -> CompOp {
            CompOp::new("unping", Value::map([("echo", Value::from(*output))]))
        }
    }

    #[test]
    fn compensation_derives_from_the_result() {
        let op = Ping {
            target: "svc".into(),
            n: 7,
        };
        assert_eq!(op.resource(), "svc");
        assert_eq!(op.decode(&Value::from(9i64)).unwrap(), 9);
        let comp = op.compensation(&9);
        assert_eq!(comp.name, "unping");
        assert_eq!(comp.params.get("echo").and_then(Value::as_i64), Some(9));
    }
}
