//! Paper pin: the figures `repro all` writes that run on the small world
//! (Table II, Fig. 3b, Fig. 4b, Fig. 5a and Fig. 5b) are serialized here
//! exactly as `repro` serializes them, and their SHA-256 is committed.
//! Any drift in a simulated charge, a stored byte count or a similarity
//! fails this file. Re-pin only with a CHANGES.md entry that explains
//! each moved value against the paper.

use expelliarmus::bench::{
    fig3_sizes, fig4b_publish, fig5a_breakdown, fig5b_retrieval, table2, Fig3Scenario,
};
use expelliarmus::prelude::*;
use expelliarmus::util::Sha256;
use serde_json::to_string_pretty as to_json;

/// `(figure, sha256 of its pretty JSON on World::small())`.
const PINS: [(&str, &str); 5] = [
    (
        "table2",
        "cdac809ec1001103890fe622366f71f99e4f340d6736e84335c68fab768d6f58",
    ),
    (
        "fig3b",
        "77deef54fb05132f7b4769eb807f17f198323e6c7fe4396a6c781ad448ccd867",
    ),
    (
        "fig4b",
        "d4aa379fb0da70bb9cf2e9cfbea0d7cecfd6939e013d032ff14cb0c7f30df24f",
    ),
    (
        "fig5a",
        "ce35f4c205496f3f0482fc3d5213de4e55580e9ee23b9f72a21342f7cb1499d7",
    ),
    (
        "fig5b",
        "7f32ed67e57c246ef5b9e9da49ae3498a680b69a898e99b32bcbcaed558d34ce",
    ),
];

fn digest(json: serde_json::Result<String>) -> String {
    Sha256::digest(json.expect("serialize").as_bytes()).to_hex()
}

#[test]
fn small_world_figures_are_pinned() {
    let w = World::small();
    // In the order of PINS.
    let got = [
        digest(to_json(&table2(&w))),
        digest(to_json(&fig3_sizes(&w, Fig3Scenario::Nineteen))),
        digest(to_json(&fig4b_publish(&w))),
        digest(to_json(&fig5a_breakdown(&w))),
        digest(to_json(&fig5b_retrieval(&w))),
    ];
    let drifted: Vec<String> = PINS
        .iter()
        .zip(&got)
        .filter(|((_, want), have)| want != have)
        .map(|((name, want), have)| format!("{name}: pinned {want}, got {have}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "figures drifted:\n{}",
        drifted.join("\n")
    );
}
