//! The committed `BENCH_*.json` baselines are exactly what the
//! artifact writer prints: each file equals `write_pretty` of its own
//! parse. Regenerating a baseline therefore only ever changes values,
//! never layout or number spelling.

use vda_core::jsonio::{parse, write_pretty};

const BASELINES: [(&str, &str); 5] = [
    (
        "BENCH_enumeration.json",
        include_str!("../../../BENCH_enumeration.json"),
    ),
    (
        "BENCH_placement.json",
        include_str!("../../../BENCH_placement.json"),
    ),
    (
        "BENCH_dynamic.json",
        include_str!("../../../BENCH_dynamic.json"),
    ),
    (
        "BENCH_fleet.json",
        include_str!("../../../BENCH_fleet.json"),
    ),
    (
        "BENCH_adaptive.json",
        include_str!("../../../BENCH_adaptive.json"),
    ),
];

#[test]
fn committed_baselines_are_in_the_writer_layout() {
    for (name, text) in BASELINES {
        let doc = parse(text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        assert!(
            write_pretty(&doc) == text,
            "{name} is not in write_pretty's layout; regenerate it with \
             `experiments --<kind>-json`"
        );
    }
}
