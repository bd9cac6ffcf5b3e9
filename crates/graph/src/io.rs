//! Plain-text edge-list serialization.
//!
//! Format: one `u v` pair per line, whitespace separated, `#`-prefixed lines
//! are comments. This is the de-facto interchange format of the network
//! alignment literature (the fly/human PPI inputs circulate as edge lists),
//! so users can drop in real datasets where we substitute generators.

use crate::{CsrGraph, VertexId};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Reads an edge list from any reader. Vertex count is `1 + max id` unless
/// a larger `min_vertices` is supplied.
pub fn read_edge_list<R: Read>(reader: R, min_vertices: usize) -> io::Result<CsrGraph> {
    let mut reader = BufReader::new(reader);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id: usize = 0;
    // One line buffer for the whole read. `trim` strips the `\n` or
    // `\r\n` terminator along with other edge whitespace, so lines read
    // as `BufRead::lines` would give them.
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<VertexId> {
            tok.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {lineno}: expected two vertex ids"),
                )
            })?
            .parse::<VertexId>()
            .map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {lineno}: bad vertex id: {e}"),
                )
            })
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        max_id = max_id.max(u as usize).max(v as usize);
        edges.push((u, v));
    }
    let n = if edges.is_empty() {
        min_vertices
    } else {
        (max_id + 1).max(min_vertices)
    };
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Writes a graph as an edge list (each undirected edge once).
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: &mut W) -> io::Result<()> {
    writeln!(writer, "# vertices: {}", g.num_vertices())?;
    writeln!(writer, "# edges: {}", g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(writer, "{u} {v}")?;
    }
    Ok(())
}

/// Convenience: reads an edge list from a file path.
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> io::Result<CsrGraph> {
    read_edge_list(std::fs::File::open(path)?, 0)
}

/// Convenience: writes an edge list to a file path.
pub fn save_edge_list<P: AsRef<Path>>(g: &CsrGraph, path: P) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    write_edge_list(g, &mut f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_buffer() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4), (0, 4)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice(), 0).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# a comment\n\n0 1\n  2 3  \n# trailing\n";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn min_vertices_pads_isolates() {
        let g = read_edge_list("0 1\n".as_bytes(), 10).unwrap();
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_edge_list("0 x\n".as_bytes(), 0).is_err());
        assert!(read_edge_list("7\n".as_bytes(), 0).is_err());
    }

    fn error_text(text: &[u8]) -> String {
        let err = read_edge_list(text, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn errors_name_the_line_counting_comments_and_blanks() {
        assert_eq!(
            error_text(b"# c\n\n0 1\n7\n"),
            "line 4: expected two vertex ids"
        );
        assert_eq!(
            error_text(b"0 1\n  \n1 x\n"),
            "line 3: bad vertex id: invalid digit found in string"
        );
        assert_eq!(
            error_text(b"-1 0\n"),
            "line 1: bad vertex id: invalid digit found in string"
        );
        assert_eq!(
            error_text(b"0 4294967296\n"),
            "line 1: bad vertex id: number too large to fit in target type"
        );
        assert_eq!(
            error_text(b"0 1\r\n\r\n2\r\n"),
            "line 3: expected two vertex ids"
        );
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let err = read_edge_list(&b"0 1\n\xff 2\n"[..], 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn crlf_comments_trailing_tokens_and_unterminated_last_line() {
        let text = "0 1\r\n  # indented comment\r\n\t2 3 0.75 extra\r\n#x 9 9\n4 0 # note\n1\t2";
        let g = read_edge_list(text.as_bytes(), 0).unwrap();
        let want = CsrGraph::from_edges(5, &[(0, 1), (2, 3), (4, 0), (1, 2)]);
        assert_eq!(g, want);
    }

    #[test]
    fn self_loops_and_duplicates_still_size_the_graph() {
        // A self loop on the largest id adds a vertex but no edge.
        let g = read_edge_list("0 1\n1 0\n0 1\n6 6\n".as_bytes(), 0).unwrap();
        assert_eq!(g.num_vertices(), 7);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("".as_bytes(), 0).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
