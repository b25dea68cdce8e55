//! Golden-value registry.
//!
//! Invariant checks catch *wrong* outputs; golden values catch *changed*
//! ones. Every entry pins a deterministic quantity of a seeded pipeline
//! run (class counts, packing sizes, round counts) on a fixture from
//! [`crate::fixtures`]. If an algorithm change shifts a value, the test
//! fails with both numbers and the fix is a conscious registry update in
//! the same PR — silent behavioral drift is impossible.
//!
//! All values are formatted as strings: integers verbatim, floats through
//! [`f4`] (4 decimal places, enough to notice real drift while ignoring
//! nothing — the pipelines are bit-deterministic given the vendored RNG).

/// Formats a float for the registry (4 decimal places).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// The registry. Keys are `<fixture>/<pipeline>/<quantity>`. Keep sorted.
const GOLDEN: &[(&str, &str)] = &[
    ("clustered_barbell_c8_b3/bfs0/rounds", "8"),
    ("harary_k12_n48/cds_s1/invalid", "0"),
    ("harary_k12_n48/cds_s1/num_trees", "3"),
    ("harary_k12_n48/cds_s1/size", "1.0000"),
    ("harary_k12_n48/stp_mwu/size", "6.0376"),
    ("harary_k4_n24/bfs0/rounds", "8"),
    ("harary_k4_n24/cds_s1/invalid", "0"),
    ("harary_k4_n24/cds_s1/num_trees", "1"),
    ("harary_k4_n24/cds_s1/size", "1.0000"),
    ("harary_k4_n24/rlnc/digest", "9091721286111269509"),
    ("harary_k4_n24/rlnc/rounds", "14"),
    ("harary_k4_n24/stp_mwu/size", "2.0259"),
    ("harary_k8_n40/bfs0/rounds", "7"),
    ("harary_k8_n40/cds_s1/invalid", "0"),
    ("harary_k8_n40/cds_s1/num_trees", "2"),
    ("harary_k8_n40/cds_s1/size", "1.0000"),
    ("harary_k8_n40/faulty_default/degradation_len", "4"),
    ("harary_k8_n40/faulty_default/digest", "2776191086185077135"),
    ("harary_k8_n40/faulty_default/flood_rounds", "39"),
    ("harary_k8_n40/faulty_default/peak_state_words", "433"),
    ("harary_k8_n40/faulty_default/repair_events", "42"),
    ("harary_k8_n40/faulty_default/rounds", "40"),
    ("harary_k8_n40/faulty_weighted/degradation_len", "4"),
    (
        "harary_k8_n40/faulty_weighted/digest",
        "3558099452848606122",
    ),
    ("harary_k8_n40/faulty_weighted/flood_rounds", "37"),
    ("harary_k8_n40/faulty_weighted/peak_state_words", "972"),
    ("harary_k8_n40/faulty_weighted/repair_events", "40"),
    ("harary_k8_n40/faulty_weighted/rounds", "38"),
    ("harary_k8_n40/rlnc/digest", "4710250910717473556"),
    ("harary_k8_n40/rlnc/rounds", "13"),
    ("harary_k8_n40/stp_mwu/size", "4.0607"),
    ("hypercube_d4/bfs0/rounds", "6"),
    ("hypercube_d4/cds_s1/invalid", "0"),
    ("hypercube_d4/cds_s1/num_trees", "1"),
    ("hypercube_d4/cds_s1/size", "1.0000"),
    ("hypercube_d4/rlnc/digest", "6121290089643668354"),
    ("hypercube_d4/rlnc/rounds", "6"),
    ("hypercube_d4/stp_mwu/size", "2.1232"),
    ("hypercube_d5/bfs0/rounds", "7"),
    ("hypercube_d5/cds_s1/invalid", "0"),
    ("hypercube_d5/cds_s1/num_trees", "1"),
    ("hypercube_d5/cds_s1/size", "1.0000"),
    ("hypercube_d5/rlnc/digest", "11865363333373612559"),
    ("hypercube_d5/rlnc/rounds", "10"),
    ("hypercube_d5/stp_mwu/size", "2.5609"),
    ("lowerbound/g2_n32000_alpha4/cost", "5"),
    ("lowerbound/g2_n4000_alpha4/cost", "3"),
    ("lowerbound/g2_n500_alpha4/cost", "2"),
    ("random_regular_n24_d4/bfs0/rounds", "6"),
    ("random_regular_n24_d4/cds_s1/invalid", "0"),
    ("random_regular_n24_d4/cds_s1/num_trees", "1"),
    ("random_regular_n24_d4/cds_s1/size", "1.0000"),
    ("random_regular_n24_d4/rlnc/digest", "10129589551469018331"),
    ("random_regular_n24_d4/rlnc/rounds", "9"),
    ("random_regular_n24_d4/stp_mwu/size", "2.0684"),
    ("random_regular_n36_d6/bfs0/rounds", "5"),
    ("random_regular_n36_d6/cds_s1/invalid", "0"),
    ("random_regular_n36_d6/cds_s1/num_trees", "1"),
    ("random_regular_n36_d6/cds_s1/size", "1.0000"),
    ("random_regular_n36_d6/faulty_default/degradation_len", "4"),
    (
        "random_regular_n36_d6/faulty_default/digest",
        "9786898984715176129",
    ),
    ("random_regular_n36_d6/faulty_default/flood_rounds", "36"),
    (
        "random_regular_n36_d6/faulty_default/peak_state_words",
        "301",
    ),
    ("random_regular_n36_d6/faulty_default/repair_events", "40"),
    ("random_regular_n36_d6/faulty_default/rounds", "37"),
    ("random_regular_n36_d6/faulty_weighted/degradation_len", "4"),
    (
        "random_regular_n36_d6/faulty_weighted/digest",
        "5617883377452853041",
    ),
    ("random_regular_n36_d6/faulty_weighted/flood_rounds", "31"),
    (
        "random_regular_n36_d6/faulty_weighted/peak_state_words",
        "744",
    ),
    ("random_regular_n36_d6/faulty_weighted/repair_events", "37"),
    ("random_regular_n36_d6/faulty_weighted/rounds", "32"),
    ("random_regular_n36_d6/rlnc/digest", "14363031946562860219"),
    ("random_regular_n36_d6/rlnc/rounds", "11"),
    ("random_regular_n36_d6/stp_mwu/size", "3.0264"),
];

/// Looks up the recorded value for `key`.
pub fn expected(key: &str) -> Option<&'static str> {
    GOLDEN
        .binary_search_by_key(&key, |&(k, _)| k)
        .ok()
        .map(|i| GOLDEN[i].1)
}

/// Asserts that `actual` matches the recorded golden value for `key`.
///
/// # Panics
/// * key unknown — the message contains the exact tuple to paste into
///   `GOLDEN`;
/// * value mismatch — the message shows recorded vs. actual.
pub fn check(key: &str, actual: impl std::fmt::Display) {
    let actual = actual.to_string();
    match expected(key) {
        None => panic!(
            "no golden entry for `{key}`; if this quantity is newly pinned, add\n    (\"{key}\", \"{actual}\"),\nto GOLDEN in crates/testkit/src/golden.rs"
        ),
        Some(exp) => assert_eq!(
            exp, actual,
            "golden drift for `{key}`: recorded {exp}, got {actual} — if intentional, update crates/testkit/src/golden.rs"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for w in GOLDEN.windows(2) {
            assert!(w[0].0 < w[1].0, "GOLDEN must stay sorted: {:?}", w[0].0);
        }
    }

    #[test]
    #[should_panic(expected = "no golden entry")]
    fn unknown_key_panics_with_paste_line() {
        check("definitely/not/recorded", 7);
    }
}
