//! The decoder sweep (`counting_alloc::sweep`: truncations, flips, arbitrary
//! strings, depth and length bombs) over the codec's own entry points: no
//! panic, no abort, a value or a typed error, and at most 4 KiB + 256 B per
//! input byte requested from the allocator.

#[path = "../../core/tests/common/counting_alloc.rs"]
mod counting_alloc;
#[path = "../../core/tests/common/hostile.rs"]
mod hostile;

use counting_alloc::{sweep, Counting};
use mar_wire::{from_slice, to_bytes, FieldCursor, Value};

#[global_allocator]
static ALLOC: Counting = Counting;

fn sample() -> Value {
    Value::map([
        ("id", Value::from(7u64)),
        ("tags", Value::list([Value::from("a"), Value::Null])),
        (
            "nested",
            Value::map([
                ("blob", Value::from(vec![1u8, 2, 3])),
                ("f", Value::from(0.5)),
            ]),
        ),
    ])
}

#[test]
fn value_and_typed_decodes_survive_the_sweep() {
    let bytes = to_bytes(&sample()).unwrap();
    sweep(&bytes, |b| {
        let _ = from_slice::<Value>(b);
        let _ = from_slice::<Vec<Vec<Option<Value>>>>(b);
        let _ = from_slice::<serde::de::IgnoredAny>(b);
    });
}

#[test]
fn a_field_walk_survives_the_sweep() {
    #[derive(serde::Serialize, serde::Deserialize)]
    enum Either {
        Left(u8),
        Right(String),
    }
    let variant = Either::Right("r".into());
    let bytes = to_bytes(&(7u32, sample(), vec!["x", "yy"], (true, 9u8), variant)).unwrap();
    sweep(&bytes, |b| {
        let Ok(mut fields) = FieldCursor::open(b, 5) else {
            return;
        };
        let walked = (|| {
            // Peeking reads no further than the input and moves nothing.
            let _ = fields.peek_variant();
            fields.next::<u32>()?;
            fields.next::<Value>()?;
            let span = fields.skip()?;
            assert!(span.end <= b.len());
            fields.enter(2)?;
            fields.skip()?;
            fields.next::<u8>()?;
            let at = fields.position();
            let index = fields.peek_variant();
            assert_eq!(fields.position(), at);
            // What the peek calls a variant, the typed decode calls the same.
            match fields.next::<Either>()? {
                Either::Left(_) => assert_eq!(index, Some(0)),
                Either::Right(_) => assert_eq!(index, Some(1)),
            }
            Ok::<_, mar_wire::WireError>(())
        })();
        if walked.is_ok() {
            let _ = fields.finish();
        }
    });
}
