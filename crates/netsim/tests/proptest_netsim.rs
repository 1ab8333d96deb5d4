//! Property-based tests for the transport substrate: traffic-statistics algebra
//! and wire-size composition.

use alvisp2p_netsim::{TrafficCategory, TrafficStats, WireSize};
use proptest::prelude::*;

fn category(i: u8) -> TrafficCategory {
    TrafficCategory::ALL[(i as usize) % TrafficCategory::ALL.len()]
}

proptest! {
    #[test]
    fn traffic_stats_merge_matches_sequential_recording(
        events in proptest::collection::vec((0u8..7, 1usize..10_000), 0..100),
        split in 0usize..100,
    ) {
        // Recording all events into one object equals recording them into two halves
        // and merging.
        let split = split.min(events.len());
        let mut whole = TrafficStats::new();
        for (c, b) in &events {
            whole.record(category(*c), *b);
        }
        let mut first = TrafficStats::new();
        for (c, b) in &events[..split] {
            first.record(category(*c), *b);
        }
        let mut second = TrafficStats::new();
        for (c, b) in &events[split..] {
            second.record(category(*c), *b);
        }
        first.merge(&second);
        prop_assert_eq!(first.bytes_sent(), whole.bytes_sent());
        prop_assert_eq!(first.messages_sent(), whole.messages_sent());
        for cat in TrafficCategory::ALL {
            prop_assert_eq!(first.category(cat), whole.category(cat));
        }
        // `since` undoes the merge: (whole - first_half) == second_half.
        let mut first_half_only = TrafficStats::new();
        for (c, b) in &events[..split] {
            first_half_only.record(category(*c), *b);
        }
        let delta = whole.since(&first_half_only);
        prop_assert_eq!(delta.bytes_sent(), second.bytes_sent());
        prop_assert_eq!(delta.messages_sent(), second.messages_sent());
        // A baseline ahead of `self` saturates every category at zero.
        let behind = first_half_only.since(&whole);
        for cat in TrafficCategory::ALL {
            prop_assert_eq!(behind.category(cat).messages, 0);
            prop_assert_eq!(behind.category(cat).bytes, 0);
        }
    }

    #[test]
    fn wire_size_of_vectors_is_compositional(
        values in proptest::collection::vec(any::<u64>(), 0..50),
        text in "[a-z]{0,40}",
    ) {
        let vec_size = values.wire_size();
        prop_assert_eq!(vec_size, 4 + values.len() * 8);
        let tuple = (text.clone(), values.clone());
        prop_assert_eq!(tuple.wire_size(), text.wire_size() + values.wire_size());
        let opt: Option<String> = Some(text.clone());
        prop_assert_eq!(opt.wire_size(), 1 + text.wire_size());
    }
}
