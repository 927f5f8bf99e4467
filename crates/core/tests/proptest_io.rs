//! Property tests for the JSON layer: arbitrary valid instances must
//! survive serialize→parse round trips bit-exactly, and parsing always
//! re-validates (no malformed instance can be smuggled in through disk).

use proptest::collection::vec;
use proptest::prelude::*;
use sst_core::instance::{Job, UniformInstance, UnrelatedInstance, INF};
use sst_core::io::{
    schedule_from_json, schedule_to_json, uniform_from_json, uniform_to_json, unrelated_from_json,
    unrelated_to_json,
};
use sst_core::schedule::Schedule;

fn uniform_instance() -> impl Strategy<Value = UniformInstance> {
    (vec(1u64..=1000, 1..=6), vec(0u64..=1000, 1..=5), vec((0usize..5, 0u64..=10_000), 0..=20))
        .prop_map(|(speeds, setups, raw)| {
            let k = setups.len();
            let jobs: Vec<Job> = raw.into_iter().map(|(c, p)| Job::new(c % k, p)).collect();
            UniformInstance::new(speeds, setups, jobs).expect("valid")
        })
}

fn unrelated_instance() -> impl Strategy<Value = UnrelatedInstance> {
    (1usize..=4, vec((0usize..3, 1u64..=100, 0u8..8), 1..=10), vec(vec(0u64..=50, 4), 3)).prop_map(
        |(m, raw, setup_rows)| {
            let ptimes: Vec<Vec<u64>> = raw
                .iter()
                .map(|&(_, p, mask)| {
                    (0..m)
                        .map(|i| {
                            // Keep machine 0 finite so every job runs.
                            if i > 0 && mask & (1 << i) != 0 {
                                INF
                            } else {
                                p + i as u64
                            }
                        })
                        .collect()
                })
                .collect();
            let classes: Vec<usize> = raw.iter().map(|&(c, _, _)| c % 3).collect();
            let setups: Vec<Vec<u64>> = setup_rows
                .into_iter()
                .map(|row| (0..m).map(|i| row[i % row.len()]).collect())
                .collect();
            UnrelatedInstance::new(m, classes, ptimes, setups).expect("valid")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn uniform_roundtrip_is_identity(inst in uniform_instance()) {
        let back = uniform_from_json(&uniform_to_json(&inst))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(inst, back);
    }

    #[test]
    fn unrelated_roundtrip_preserves_infinities(inst in unrelated_instance()) {
        let back = unrelated_from_json(&unrelated_to_json(&inst))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(inst, back);
    }

    #[test]
    fn schedule_roundtrip(asg in vec(0usize..100, 0..=30)) {
        let s = Schedule::new(asg);
        let back = schedule_from_json(&schedule_to_json(&s))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(s, back);
    }

    #[test]
    fn cross_kind_parsing_always_errors(inst in uniform_instance()) {
        // A uniform file must never parse as an unrelated instance.
        prop_assert!(unrelated_from_json(&uniform_to_json(&inst)).is_err());
    }
}
