//! The hostile inputs every decoder sweep runs: made from one valid
//! encoding, so a test says what its decoder reads and not how to break it.
//! No allocator, no `unsafe` — a crate's unit tests include this file alone
//! (`#[path]`) for decoders an integration test cannot name; with the
//! allocation bound on top it is `counting_alloc::sweep`.

// Each test binary uses a different subset of these helpers.
#![allow(dead_code)]

/// Nesting far past any bound a decoder may set; 100,000 levels of
/// recursion is what used to overflow a 2 MiB stack.
const DEEP: usize = 100_000;
/// Nesting just past the codec's bound, cheap enough to try at every offset.
const PAST_BOUND: usize = 200;

/// The nestable shapes of the wire grammar, one level each: a one-element
/// sequence, an option, a one-entry map keyed `""`, and a sequence that
/// declares `u64::MAX` elements.
const SHAPES: [&[u8]; 4] = [
    &[0x0b, 0x01],
    &[0x0a],
    &[0x0c, 0x01, 0x08, 0x00],
    &[
        0x0b, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
    ],
];

/// `levels` of `shape` around a `Null`.
pub fn nest(shape: &[u8], levels: usize) -> Vec<u8> {
    let mut bytes = shape.repeat(levels);
    bytes.push(0x00);
    bytes
}

/// `levels` sequences, each declaring as many elements as bytes follow it —
/// the most a length check lets through — around `filler` `Null`s: what a
/// decoder that reserves per level multiplies by its depth.
pub fn length_bomb(levels: usize, filler: usize) -> Vec<u8> {
    let mut bytes = vec![0x00; filler];
    for _ in 0..levels {
        let mut header = vec![0x0b];
        mar_wire::varint::put_uvarint(&mut header, bytes.len() as u64);
        header.extend_from_slice(&bytes);
        bytes = header;
    }
    bytes
}

/// `record` — an encoded agent record — with its `data` field replaced by
/// `SEQ(3)[MAP{"x": 100,000 nested sequences}, MAP{}, NULL]`: a data space
/// by its framing, whose one object nests past any stack. Everything around
/// it stays valid, so a reader fails at that field or not at all.
pub fn record_with_deep_data(record: &[u8]) -> Vec<u8> {
    let mut fields = mar_wire::FieldCursor::open(record, 12).expect("a record");
    for _ in 0..3 {
        fields.skip().expect("id, agent_type, home");
    }
    let data = fields.skip().expect("data");
    let mut deep = vec![0x0b, 0x03, 0x0c, 0x01, 0x08, 0x01, b'x'];
    deep.extend(nest(SHAPES[0], DEEP));
    deep.extend([0x0c, 0x00, 0x00]);
    [&record[..data.start], &deep, &record[data.end..]].concat()
}

/// Calls `read` with every hostile variant of `valid`: each truncation, each
/// byte flipped three ways, 64 arbitrary strings, each nestable shape
/// 100,000 deep on its own and 200 deep at every offset of `valid` (where a
/// value may start, and where none may), and length bombs of 100 levels.
pub fn each(valid: &[u8], mut read: impl FnMut(&[u8])) {
    for len in 0..valid.len() {
        read(&valid[..len]);
    }
    let mut flipped = valid.to_vec();
    for at in 0..valid.len() {
        for mask in [0x01, 0x80, 0xff] {
            flipped[at] = valid[at] ^ mask;
            read(&flipped);
        }
        flipped[at] = valid[at];
    }
    // xorshift64: arbitrary, and the same strings on every run.
    let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ valid.len() as u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..64 {
        let len = next() as usize % 256;
        let arbitrary: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        read(&arbitrary);
    }
    for shape in SHAPES {
        read(&nest(shape, DEEP));
        let deep = nest(shape, PAST_BOUND);
        for at in 0..=valid.len() {
            read(&[&valid[..at], &deep].concat());
        }
    }
    for filler in [0, 1024, 8192] {
        read(&length_bomb(100, filler));
        read(&[valid, &length_bomb(100, filler)].concat());
    }
}
