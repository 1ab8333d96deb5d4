//! Pins `#[serde(default)]` support in the in-workspace serde stand-in.
//!
//! Bench reports gain fields over time; the committed-report tests must still
//! parse reports committed before a field existed. A `#[serde(default)]` field therefore has
//! to deserialize to `Default::default()` when absent — and still round-trip
//! normally when present.

use serde::{Deserialize, Serialize};

#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
struct Counters {
    retries: u64,
    failed: u64,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Row {
    label: String,
    value: f64,
    #[serde(default)]
    counters: Counters,
}

#[test]
fn missing_default_field_deserializes_to_default() {
    let old_report = r#"{"label": "arm-a", "value": 1.5}"#;
    let row: Row = serde_json::from_str(old_report).expect("old-format report must parse");
    assert_eq!(row.label, "arm-a");
    assert_eq!(row.counters, Counters::default());
}

#[test]
fn present_default_field_round_trips() {
    let row = Row {
        label: "arm-b".into(),
        value: 2.0,
        counters: Counters {
            retries: 3,
            failed: 1,
        },
    };
    let json = serde_json::to_string(&row).expect("serialize");
    let back: Row = serde_json::from_str(&json).expect("round-trip");
    assert_eq!(back, row);
}

#[test]
fn missing_non_default_field_still_errors() {
    let err = serde_json::from_str::<Row>(r#"{"label": "arm-c"}"#)
        .expect_err("missing `value` has no default and must fail");
    assert!(
        format!("{err:?}").contains("value"),
        "error should name the missing field: {err:?}"
    );
}
