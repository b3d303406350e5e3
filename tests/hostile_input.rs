//! Hostile inputs at the external boundaries must come back as typed
//! errors, never as panics.

use cdrw_bench::json::{Json, MAX_DEPTH};
use cdrw_repro::graph::io::{parse_edge_list, parse_metis};
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
fn metis_header_with_four_billion_vertices_is_a_parse_error() {
    // The header's `n` only sizes the row count the parser expects: the
    // builder allocates nothing per vertex, and the rows are counted before
    // `build()`. A per-vertex allocation here would ask for tens of GiB.
    for (text, found) in [
        ("4000000000 0\n", 0),
        ("4000000000 1\n2\n1\n", 2),
        ("% comment\n4000000000 1 1\n2 0.5\n1 0.5\n", 2),
    ] {
        match parse_metis(text) {
            Err(GraphError::ParseError { reason, .. }) => assert!(
                reason.contains(&format!(
                    "expected 4000000000 adjacency lines, found {found}"
                )),
                "{text:?}: {reason}"
            ),
            other => panic!("{text:?} should be a parse error, got {other:?}"),
        }
    }
    // The same rows under an honest header still parse.
    let graph = parse_metis("2 1\n2\n1\n").unwrap();
    assert_eq!((graph.num_vertices(), graph.num_edges()), (2, 1));
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
