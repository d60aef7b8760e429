//! Fuzz-ish certification of the result codec's decoder
//! ([`decode_outputs`]) against mangled payloads.
//!
//! A result payload crosses a trust boundary: the client decodes whatever
//! words the server link delivers. The contract is that *every* malformed
//! payload — truncated, count-corrupted, or spliced with garbage — surfaces
//! as a typed `Err` and never as a panic, a hang or an allocation sized by
//! an unchecked count. A clean round trip must keep working.

// Demo/test target: panicking on bad setup is the desired behavior here
// (the workspace-level clippy::unwrap_used lint targets library code).
#![allow(clippy::unwrap_used)]

use conclave::prelude::*;
use conclave::server::wire::{decode_outputs, encode_outputs};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Two recipients, every value tag, a NULL and an empty relation.
fn sample_outputs() -> BTreeMap<u32, Relation> {
    let mut outputs = BTreeMap::new();
    outputs.insert(
        1,
        Relation::new(
            Schema::new(vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("avg", DataType::Float),
                ColumnDef::new("ok", DataType::Bool),
            ]),
            vec![
                vec![
                    Value::Int(-7),
                    Value::Str("acme corp".into()),
                    Value::Float(2.5),
                    Value::Bool(true),
                ],
                vec![
                    Value::Null,
                    Value::Str(String::new()),
                    Value::Float(-0.0),
                    Value::Bool(false),
                ],
            ],
        )
        .unwrap(),
    );
    outputs.insert(3, Relation::from_ints(&["x", "y"], &[]));
    outputs
}

#[test]
fn clean_payloads_round_trip() {
    let outputs = sample_outputs();
    assert_eq!(decode_outputs(&encode_outputs(&outputs)).unwrap(), outputs);
    assert!(decode_outputs(&encode_outputs(&BTreeMap::new()))
        .unwrap()
        .is_empty());
}

#[test]
fn absurd_counts_error_instead_of_allocating() {
    // One output for party 1 claiming u64::MAX columns, with no words left
    // to hold them.
    assert!(decode_outputs(&[1, 1, u64::MAX]).is_err());
    // One column `a` of type INT, then u64::MAX rows that are not there.
    let mut words = vec![1, 1, 1];
    words.extend(conclave::net::serve::pack_text("a"));
    words.extend([0, u64::MAX]);
    assert!(decode_outputs(&words).unwrap_err().contains("truncated"));
    // Zero-width rows would take no words, so a huge row count on zero
    // columns is rejected outright instead of looping.
    assert!(decode_outputs(&[1, 1, 0, u64::MAX]).is_err());
    // u64::MAX outputs, and a text header claiming u64::MAX bytes.
    assert!(decode_outputs(&[u64::MAX]).is_err());
    assert!(decode_outputs(&[1, 1, 1, u64::MAX]).is_err());
    // A party id that does not fit.
    assert!(decode_outputs(&[1, u64::MAX, 0, 0])
        .unwrap_err()
        .contains("party"));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut words = encode_outputs(&sample_outputs());
    words.push(42);
    assert!(decode_outputs(&words).unwrap_err().contains("trailing"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating a valid payload at any word boundary is a typed error.
    #[test]
    fn truncated_payloads_never_panic(ppm in 0u64..1_000_000) {
        let words = encode_outputs(&sample_outputs());
        let cut = (words.len() * ppm as usize) / 1_000_000;
        prop_assert!(decode_outputs(&words[..cut]).is_err(), "cut at {}", cut);
    }

    /// Overwriting any one word with garbage — including absurd counts —
    /// either still decodes (the word was a value) or errors; it never
    /// panics or allocates the lie.
    #[test]
    fn spliced_words_never_panic(ppm in 0u64..1_000_000, junk_ix in 0usize..5) {
        let junk = [u64::MAX, u64::MAX / 2, 1 << 40, 99, 0][junk_ix];
        let mut words = encode_outputs(&sample_outputs());
        let at = (words.len() * ppm as usize) / 1_000_000;
        words[at] = junk;
        let _ = decode_outputs(&words);
    }
}
