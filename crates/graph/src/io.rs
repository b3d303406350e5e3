//! Plain-text graph readers: whitespace edge lists and METIS files.
//!
//! Two interchange formats cover most real-world datasets dropped into the
//! container:
//!
//! * **Edge list** ([`parse_edge_list`]) — one edge per line, `u v` or
//!   `u v w` with an optional weight column. `#` and `%` start comments.
//! * **METIS** ([`parse_metis`]) — the classic `n m [fmt]` header followed
//!   by one 1-indexed adjacency line per vertex, with interleaved edge
//!   weights when `fmt` ends in `1`.
//!
//! Both readers produce the same [`Graph`] the generators do: simple,
//! undirected, with the optional weight lane engaged exactly when the input
//! carries weights — so a dataset file runs through the full CDRW stack
//! (sequential, CONGEST, k-machine) unchanged.

use crate::{Graph, GraphBuilder, GraphError, VertexId};

fn parse_err(line: usize, reason: impl Into<String>) -> GraphError {
    GraphError::ParseError {
        line,
        reason: reason.into(),
    }
}

fn parse_field<T: std::str::FromStr>(
    token: &str,
    line: usize,
    what: &str,
) -> Result<T, GraphError> {
    token
        .parse()
        .map_err(|_| parse_err(line, format!("cannot parse {what} from `{token}`")))
}

/// Parses a whitespace-separated edge list: one `u v` or `u v weight` line
/// per edge, vertex ids 0-based, blank lines and `#`/`%` comments ignored —
/// both full-line comments and trailing inline ones (`0 1 2.5 # note`).
///
/// The vertex count is `max id + 1`, bounded by the input's size: an id
/// whose vertex count would exceed `max(2^20, 16 · text.len())` is a
/// [`GraphError::ParseError`] on its line, raised before anything is built.
/// A dense list spends at least two bytes per vertex, so it never meets the
/// bound; sparse SNAP-style ids up to `2^20 − 1` load from any input; and a
/// single line such as `0 4000000000` cannot ask the build for a 32 GB
/// offsets array.
///
/// A weight column on *any* line engages the weight lane for the whole
/// graph (weight-less lines contribute `1.0`); duplicate pairs merge by
/// summing weights, matching [`GraphBuilder::add_weighted_edge`]. Self-loops
/// are skipped — real datasets commonly carry them, and the walk substrate
/// works on simple graphs. The collected edges are handed to
/// [`GraphBuilder::from_edges`] or [`GraphBuilder::from_weighted_edges`],
/// which size their edge list from the count.
///
/// # Errors
///
/// [`GraphError::ParseError`] on malformed lines (including a vertex id
/// past the bound above, `usize::MAX` among them),
/// [`GraphError::InvalidParameter`] on non-positive or non-finite weights.
pub fn parse_edge_list(text: &str) -> Result<Graph, GraphError> {
    let vertex_limit = (1usize << 20).max(text.len().saturating_mul(16));
    let mut edges: Vec<(VertexId, VertexId, f64)> = Vec::new();
    let mut max_vertex = 0usize;
    let mut any_weight = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        // Strip a trailing inline comment before splitting fields; a line
        // that is all comment (or blank) is skipped entirely.
        let line = raw.find(['#', '%']).map_or(raw, |pos| &raw[..pos]).trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let u: VertexId = parse_field(fields.next().unwrap(), line_no, "vertex id")?;
        let v: VertexId = parse_field(
            fields
                .next()
                .ok_or_else(|| parse_err(line_no, "expected at least two fields"))?,
            line_no,
            "vertex id",
        )?;
        let w = match fields.next() {
            Some(tok) => {
                any_weight = true;
                parse_field::<f64>(tok, line_no, "edge weight")?
            }
            None => 1.0,
        };
        if fields.next().is_some() {
            return Err(parse_err(line_no, "expected at most three fields"));
        }
        // The vertex count is `max id + 1`, so the largest id must stay
        // below the limit (which also leaves room for the `+ 1`).
        let id = u.max(v);
        if id >= vertex_limit {
            return Err(parse_err(
                line_no,
                format!(
                    "vertex id {id} asks for more than {vertex_limit} vertices, \
                     the limit for {} input bytes (max(2^20, 16 per byte))",
                    text.len()
                ),
            ));
        }
        max_vertex = max_vertex.max(id);
        if u == v {
            continue; // tolerated and dropped: the substrate is simple
        }
        edges.push((u, v, w));
    }
    let n = if edges.is_empty() && max_vertex == 0 {
        0
    } else {
        max_vertex + 1
    };
    if any_weight {
        GraphBuilder::from_weighted_edges(n, edges)
    } else {
        GraphBuilder::from_edges(n, edges.into_iter().map(|(u, v, _)| (u, v)))
    }
}

/// Parses a METIS graph file: header `n m [fmt]`, then one adjacency line
/// per vertex with 1-indexed neighbour ids, `%` comment lines ignored.
///
/// Supported `fmt` codes are `0`/`00` (plain, the default) and `1`/`01`
/// (edge weights, interleaved `neighbour weight` pairs). Vertex weights
/// (`fmt` ≥ 10) are not supported. Each edge must appear in both endpoint
/// rows, as the format requires; the reader takes the weight from the
/// smaller endpoint's row and validates the declared edge count `m`.
///
/// # Errors
///
/// [`GraphError::ParseError`] on malformed input, an unsupported `fmt`, a
/// wrong line count, or an edge-count mismatch with the header;
/// [`GraphError::InvalidParameter`] on non-positive or non-finite weights.
pub fn parse_metis(text: &str) -> Result<Graph, GraphError> {
    // (1-based line number, content) for every non-comment line. Blank
    // lines are kept: after the header they are the adjacency rows of
    // isolated vertices, which the format encodes as empty lines.
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.starts_with('%'));
    let (header_no, header) = lines
        .by_ref()
        .find(|(_, l)| !l.is_empty())
        .ok_or_else(|| parse_err(1, "empty METIS file: missing `n m [fmt]` header"))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 2 || fields.len() > 3 {
        return Err(parse_err(header_no, "header must be `n m [fmt]`"));
    }
    let n: usize = parse_field(fields[0], header_no, "vertex count")?;
    let m: usize = parse_field(fields[1], header_no, "edge count")?;
    let weighted = match fields.get(2).copied().unwrap_or("0") {
        "0" | "00" | "000" => false,
        "1" | "01" | "001" => true,
        fmt => {
            return Err(parse_err(
                header_no,
                format!("unsupported METIS fmt `{fmt}` (vertex weights are not supported)"),
            ))
        }
    };

    let mut builder = GraphBuilder::new(n);
    let mut vertex = 0usize;
    for (line_no, line) in lines {
        if vertex >= n {
            if line.is_empty() {
                continue; // tolerate trailing blank lines
            }
            return Err(parse_err(line_no, format!("more than {n} adjacency lines")));
        }
        let mut fields = line.split_whitespace();
        while let Some(tok) = fields.next() {
            let neighbor1: usize = parse_field(tok, line_no, "neighbour id")?;
            if neighbor1 == 0 || neighbor1 > n {
                return Err(parse_err(
                    line_no,
                    format!("neighbour id {neighbor1} outside 1..={n}"),
                ));
            }
            let neighbor = neighbor1 - 1;
            let weight = if weighted {
                let tok = fields.next().ok_or_else(|| {
                    parse_err(line_no, "missing weight after neighbour id (fmt = 1)")
                })?;
                Some(parse_field::<f64>(tok, line_no, "edge weight")?)
            } else {
                None
            };
            if neighbor == vertex {
                return Err(parse_err(line_no, format!("self-loop on vertex {vertex}")));
            }
            // Each undirected edge appears in both rows; record it from the
            // smaller endpoint's row only, so weighted dedup-by-sum cannot
            // double it.
            if vertex < neighbor {
                match weight {
                    Some(w) => builder.add_weighted_edge(vertex, neighbor, w)?,
                    None => builder.add_edge(vertex, neighbor)?,
                }
            }
        }
        vertex += 1;
    }
    if vertex != n {
        return Err(parse_err(
            header_no,
            format!("expected {n} adjacency lines, found {vertex}"),
        ));
    }
    let graph = builder.build();
    if graph.num_edges() != m {
        return Err(parse_err(
            header_no,
            format!(
                "header declares {m} edges but the adjacency lists define {}",
                graph.num_edges()
            ),
        ));
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_list_without_weights_is_unweighted() {
        let g = parse_edge_list("# a path\n0 1\n1 2\n\n% trailing comment\n").unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(!g.is_weighted());
    }

    #[test]
    fn edge_list_weight_column_engages_the_lane() {
        let g = parse_edge_list("0 1 2.5\n1 2 0.5\n2 3\n").unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
        // Weight-less line in a weighted file defaults to 1.0.
        assert_eq!(g.edge_weight(2, 3), Some(1.0));
        assert_eq!(g.weighted_degree(1), 3.0);
    }

    #[test]
    fn edge_list_duplicates_sum_and_self_loops_drop() {
        let g = parse_edge_list("0 1 1.5\n1 0 1.0\n2 2 9.0\n1 2 1.0\n").unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn edge_list_fixture_mixes_comments_blank_lines_and_weights() {
        // The satellite fixture: full-line `#` and `%` comments, blank lines,
        // inline trailing comments on both weighted and unweighted lines —
        // all in one file.
        let fixture = "\
# weighted collaboration snippet
% exported 2026-08-08

0 1 2.5   # strong tie
1 2 0.5 % weak tie

2 3       # unweighted line in a weighted file -> 1.0
3 0
   % indented comment line
";
        let g = parse_edge_list(fixture).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
        assert_eq!(g.edge_weight(1, 2), Some(0.5));
        assert_eq!(g.edge_weight(2, 3), Some(1.0));
        assert_eq!(g.edge_weight(0, 3), Some(1.0));
        // Inline comments on an unweighted file keep it unweighted.
        let plain = parse_edge_list("0 1 # note\n1 2 % note\n").unwrap();
        assert!(!plain.is_weighted());
        assert_eq!(plain.num_edges(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(matches!(
            parse_edge_list("0 x\n"),
            Err(GraphError::ParseError { line: 1, .. })
        ));
        assert!(matches!(
            parse_edge_list("0 1\n2\n"),
            Err(GraphError::ParseError { line: 2, .. })
        ));
        assert!(matches!(
            parse_edge_list("0 1 2.0 3.0\n"),
            Err(GraphError::ParseError { line: 1, .. })
        ));
        assert!(matches!(
            parse_edge_list("0 1 -2.0\n"),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn empty_edge_list_is_the_empty_graph() {
        let g = parse_edge_list("# nothing\n").unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn metis_plain_triangle_with_pendant() {
        // The METIS manual's shape: n m, then 1-indexed rows.
        let text = "% tiny\n4 4\n2 3\n1 3\n1 2 4\n3\n";
        let g = parse_metis(text).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_weighted());
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2) && g.has_edge(1, 2) && g.has_edge(2, 3));
    }

    #[test]
    fn metis_edge_weights_fmt_1() {
        let text = "3 2 1\n2 5.0\n1 5.0 3 2.0\n2 2.0\n";
        let g = parse_metis(text).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(5.0));
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.weighted_degree(1), 7.0);
    }

    #[test]
    fn metis_rejects_bad_inputs() {
        // Unsupported vertex-weight fmt.
        assert!(matches!(
            parse_metis("2 1 11\n2 1.0\n1 1.0\n"),
            Err(GraphError::ParseError { .. })
        ));
        // Edge count mismatch with the header.
        assert!(matches!(
            parse_metis("3 5\n2\n1 3\n2\n"),
            Err(GraphError::ParseError { .. })
        ));
        // Wrong number of adjacency lines.
        assert!(matches!(
            parse_metis("3 2\n2\n1 3\n"),
            Err(GraphError::ParseError { .. })
        ));
        // Neighbour id out of the 1-indexed range.
        assert!(matches!(
            parse_metis("2 1\n2\n1 0\n"),
            Err(GraphError::ParseError { .. })
        ));
        // Self-loop.
        assert!(matches!(
            parse_metis("2 1\n1\n2\n"),
            Err(GraphError::ParseError { .. })
        ));
        // Missing weight in fmt-1 mode.
        assert!(matches!(
            parse_metis("2 1 1\n2\n1 1.0\n"),
            Err(GraphError::ParseError { .. })
        ));
    }

    #[test]
    fn metis_empty_rows_are_isolated_vertices() {
        // Vertex 3's adjacency row is blank: an isolated vertex.
        let g = parse_metis("3 1\n2\n1\n\n").unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }
}
