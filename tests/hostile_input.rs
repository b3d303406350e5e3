//! Hostile inputs at the external boundaries must come back as typed
//! errors, never as panics.

use cdrw_bench::json::{Json, MAX_DEPTH};
use cdrw_repro::graph::io::parse_edge_list;
use cdrw_repro::graph::GraphError;

#[test]
fn edge_list_with_the_largest_vertex_id_is_a_parse_error() {
    let max = usize::MAX;
    for (text, line) in [
        (format!("0 {max}"), 1),
        (format!("{max} 0 2.5"), 1),
        (format!("# header\n0 1\n{max} {max}"), 3),
    ] {
        match parse_edge_list(&text) {
            Err(GraphError::ParseError { line: at, reason }) => {
                assert_eq!(at, line, "{text:?}: {reason}");
                assert!(reason.contains(&max.to_string()), "{reason}");
            }
            other => panic!("{text:?} should be a parse error, got {other:?}"),
        }
    }
    // Ordinary ids still parse.
    let graph = parse_edge_list("0 1\n1 2").unwrap();
    assert_eq!(graph.num_vertices(), 3);
}

#[test]
fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
    let hostile = "[".repeat(1_000_000);
    let err = Json::parse(&hostile).unwrap_err();
    assert!(
        err.contains(&format!("at byte {MAX_DEPTH}")),
        "the error names where the nesting limit was hit: {err}"
    );
    let err = Json::parse(&"{\"a\":".repeat(1_000_000)).unwrap_err();
    assert!(err.contains("nesting deeper"), "{err}");
    // Nesting up to the limit still parses.
    let deep = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(&deep).is_ok());
}
