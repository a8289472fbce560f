//! Property tests for the flight-recorder ring: with a single writer (no
//! slot contention, so no drops) the ring must behave exactly like a naive
//! bounded `VecDeque` keeping the last `capacity` events.

use std::collections::VecDeque;

use parmem_obs::flight::{FlightEvent, FlightEventKind, Ring};
use proptest::prelude::*;

fn ev(i: usize) -> FlightEvent {
    FlightEvent {
        kind: if i.is_multiple_of(3) {
            FlightEventKind::Heartbeat
        } else {
            FlightEventKind::Span
        },
        name: format!("ev{i}"),
        start_ns: i as u64 * 17,
        dur_ns: i as u64,
        thread: (i % 5) as u64,
        done: i as u64,
        total: 100,
    }
}

proptest! {
    #[test]
    fn ring_matches_bounded_vecdeque(
        capacity in 1usize..32,
        pushes in 0usize..200,
    ) {
        let ring = Ring::new(capacity);
        let mut reference: VecDeque<String> = VecDeque::new();
        for i in 0..pushes {
            ring.push(ev(i));
            reference.push_back(format!("ev{i}"));
            if reference.len() > capacity {
                reference.pop_front();
            }
        }
        let recent = ring.recent();
        // Same retained events, oldest first.
        let names: Vec<&str> = recent.iter().map(|(_, e)| e.name.as_str()).collect();
        let expect: Vec<&str> = reference.iter().map(String::as_str).collect();
        prop_assert_eq!(names, expect);
        // Sequence numbers are the push indices, strictly increasing.
        let seqs: Vec<u64> = recent.iter().map(|(s, _)| *s).collect();
        for w in seqs.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        if let Some(&first) = seqs.first() {
            prop_assert_eq!(first, (pushes - reference.len()) as u64);
        }
        prop_assert_eq!(ring.pushed(), pushes as u64);
        prop_assert!(recent.len() <= capacity);
    }

    #[test]
    fn wraparound_evicts_exactly_the_oldest(
        capacity in 1usize..16,
        extra in 1usize..48,
    ) {
        let ring = Ring::new(capacity);
        let total = capacity + extra;
        for i in 0..total {
            ring.push(ev(i));
        }
        let recent = ring.recent();
        prop_assert_eq!(recent.len(), capacity);
        // The survivors are the last `capacity` pushes, in push order.
        for (offset, (seq, e)) in recent.iter().enumerate() {
            let idx = total - capacity + offset;
            prop_assert_eq!(*seq, idx as u64);
            let expect = format!("ev{idx}");
            prop_assert_eq!(e.name.as_str(), expect.as_str());
        }
    }
}

#[test]
fn concurrent_pushes_never_block_and_keep_valid_sequences() {
    // Contended slots may drop events (the documented obstruction-free
    // trade-off), but what survives must be well-formed: unique strictly
    // increasing sequences within the last-capacity window.
    let ring = Ring::new(16);
    std::thread::scope(|s| {
        for t in 0..4 {
            let ring = &ring;
            s.spawn(move || {
                for i in 0..250 {
                    ring.push(ev(t * 1000 + i));
                }
            });
        }
    });
    assert_eq!(ring.pushed(), 1000);
    let recent = ring.recent();
    assert!(recent.len() <= 16);
    for w in recent.windows(2) {
        assert!(w[0].0 < w[1].0, "sequences strictly increasing");
    }
    // Every retained event is from the final window of sequence numbers.
    for (seq, _) in &recent {
        assert!(*seq >= 1000 - 16);
    }
}
