//! Hostile inputs at the external boundaries must come back as typed
//! errors, never as panics.

use cdrw_bench::json::{Json, MAX_DEPTH};
use cdrw_repro::gen::{
    generate_dcsbm, generate_gnp, generate_sbm, DcsbmParams, GenError, GnpParams, SbmParams,
};
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
fn edge_list_vertex_count_is_bounded_by_the_input_size() {
    // The vertex count is `max id + 1`, capped at `max(2^20, 16 · bytes)`:
    // a lone large id must be refused on its line before `build()` sizes an
    // offsets array from it (4·10⁹ vertices would be 32 GB).
    let started = std::time::Instant::now();
    for (text, line, id) in [
        ("0 4000000000", 1, 4_000_000_000usize),
        ("# header\n0 1\n1048576 2 0.5\n", 3, 1 << 20),
        ("0 1\n1 2\n2 3\n3 99999999999\n", 4, 99_999_999_999),
    ] {
        match parse_edge_list(text) {
            Err(GraphError::ParseError { line: at, reason }) => {
                assert_eq!(at, line, "{text:?}: {reason}");
                assert!(reason.contains(&id.to_string()), "{reason}");
            }
            other => panic!("{text:?} should be a parse error, got {other:?}"),
        }
    }
    assert!(
        started.elapsed() < std::time::Duration::from_millis(250),
        "refusing an id took {:?}",
        started.elapsed()
    );
    // Sparse ids below 2^20 load from a one-line file.
    let sparse = parse_edge_list("0 1048575\n").unwrap();
    assert_eq!((sparse.num_vertices(), sparse.num_edges()), (1 << 20, 1));
    // A longer input raises the bound by 16 vertices per byte: pad a
    // comment until the file is exactly long enough for the id.
    let id = 2_000_000usize;
    let mut text = format!("0 {id}\n");
    let padding = (id + 1).div_ceil(16) - text.len() - "#\n".len();
    text.push_str(&format!("#{}\n", "x".repeat(padding)));
    assert_eq!(16 * text.len(), (id + 1).next_multiple_of(16));
    assert_eq!(parse_edge_list(&text).unwrap().num_vertices(), id + 1);
    // One byte fewer and the same id is refused.
    text.pop();
    assert!(matches!(
        parse_edge_list(&text),
        Err(GraphError::ParseError { line: 1, .. })
    ));
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

#[test]
fn literal_block_model_params_that_new_rejects_are_typed_errors() {
    // The fields are public, so a caller can skip `new`; the generators
    // re-run its checks instead of indexing past the matrix or theta.
    let short_matrix = SbmParams {
        block_sizes: vec![2, 2],
        block_matrix: vec![vec![0.5]],
    };
    assert!(matches!(
        generate_sbm(&short_matrix, 1),
        Err(GenError::MalformedBlockMatrix { .. })
    ));
    let over_one = SbmParams {
        block_sizes: vec![2, 2],
        block_matrix: vec![vec![2.0, 0.1], vec![0.1, 0.5]],
    };
    match generate_sbm(&over_one, 1) {
        Err(GenError::ProbabilityOutOfRange { name, value }) => {
            assert_eq!((name.as_str(), value), ("B[0][0]", 2.0));
        }
        other => panic!("an entry of 2.0 is not a probability, got {other:?}"),
    }
    let short_theta = DcsbmParams {
        block_sizes: vec![2, 2],
        block_matrix: vec![vec![0.5, 0.1], vec![0.1, 0.5]],
        theta: vec![1.0; 3],
    };
    match generate_dcsbm(&short_theta, 1) {
        Err(GenError::InvalidSize { reason }) => {
            assert!(
                reason.contains("theta has 3 entries for 4 vertices"),
                "{reason}"
            );
        }
        other => panic!("theta shorter than n should be a size error, got {other:?}"),
    }
    // The same models built through `new` still generate.
    let valid = SbmParams::new(vec![2, 2], vec![vec![1.0, 0.1], vec![0.1, 0.5]]).unwrap();
    assert!(generate_sbm(&valid, 1).is_ok());
    assert!(generate_dcsbm(&DcsbmParams::from_sbm(&valid), 1).is_ok());
}

#[test]
fn literal_gnp_params_with_a_bad_probability_are_typed_errors() {
    // `for_each_selected` reads `p >= 1` as "select every pair", so an
    // unchecked NaN or 1.5 would come back as the complete graph.
    for p in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.5, -0.1] {
        match generate_gnp(&GnpParams { n: 100, p }, 1) {
            Err(GenError::ProbabilityOutOfRange { name, value }) => {
                assert_eq!(name, "p");
                assert_eq!(value.to_bits(), p.to_bits());
            }
            other => panic!("p = {p} is not a probability, got {other:?}"),
        }
    }
    // A literal `n = 0` stays the empty graph.
    let empty = generate_gnp(&GnpParams { n: 0, p: 0.5 }, 1).unwrap();
    assert_eq!((empty.num_vertices(), empty.num_edges()), (0, 0));
    // The bounds themselves are probabilities.
    assert_eq!(
        generate_gnp(&GnpParams { n: 5, p: 1.0 }, 1)
            .unwrap()
            .num_edges(),
        10
    );
    assert_eq!(
        generate_gnp(&GnpParams { n: 5, p: 0.0 }, 1)
            .unwrap()
            .num_edges(),
        0
    );
}
