//! Graph I/O.
//!
//! Two formats:
//!
//! * **Edge-list text** ([`read_edge_list`] / [`write_edge_list`]) — the
//!   SNAP distribution format: one `u v` pair per line, `#` comments,
//!   arbitrary whitespace. Vertex ids are remapped densely in first-seen
//!   order, so raw SNAP downloads load directly.
//! * **Binary CSR** ([`read_binary`] / [`write_binary`]) — the CSR
//!   arrays as bulk little-endian sections in a checksummed `SRSBNDL1`
//!   bundle (see [`crate::container`]), for fast reloading of generated
//!   datasets between benchmark runs. Any other binary input, older
//!   per-edge streams included, fails with [`GraphError::Format`].

use crate::{Graph, GraphBuilder, GraphError, VertexId};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Reads a SNAP-style edge list. Lines starting with `#` (or `%`) are
/// comments; each data line holds two whitespace-separated vertex ids.
/// Ids are remapped to `0..n` in first-seen order.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let reader = BufReader::new(reader);
    let mut remap: crate::hash::FxHashMap<u64, VertexId> = crate::hash::FxHashMap::default();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let intern =
        |raw: u64, remap: &mut crate::hash::FxHashMap<u64, VertexId>| -> Result<VertexId, GraphError> {
            if let Some(&id) = remap.get(&raw) {
                return Ok(id);
            }
            let next = remap.len() as u64;
            if next > u32::MAX as u64 {
                return Err(GraphError::TooManyVertices(next));
            }
            remap.insert(raw, next as VertexId);
            Ok(next as VertexId)
        };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>| -> Result<u64, GraphError> {
            s.ok_or_else(|| GraphError::Parse { line: lineno + 1, message: "missing field".into() })?
                .parse::<u64>()
                .map_err(|e| GraphError::Parse { line: lineno + 1, message: e.to_string() })
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        let u = intern(u, &mut remap)?;
        let v = intern(v, &mut remap)?;
        edges.push((u, v));
    }
    let n = remap.len() as u32;
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// Reads an edge list from a file path.
pub fn read_edge_list_path<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// Writes the graph as an edge-list with a summary comment header.
pub fn write_edge_list<W: Write>(g: &Graph, mut w: W) -> Result<(), GraphError> {
    writeln!(w, "# srs-graph edge list: n={} m={}", g.num_vertices(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    Ok(())
}

/// Writes the graph as a `SRSBNDL1` section bundle (bulk little-endian
/// CSR arrays with per-section checksums; see [`crate::container`]).
pub fn write_binary<W: Write>(g: &Graph, w: W) -> Result<(), GraphError> {
    let mut bundle = crate::container::BundleWriter::new();
    g.add_bundle_sections(&mut bundle);
    bundle.write_to(w).map_err(|e| match e {
        crate::container::BundleError::Io(io) => GraphError::Io(io),
        other => GraphError::Format(other.to_string()),
    })
}

/// Reads a binary graph: a `SRSBNDL1` bundle carrying the `g.*`
/// sections, loaded as bulk sections (zero-copy). Anything else is a
/// [`GraphError::Format`] error.
pub fn read_binary<R: Read>(mut r: R) -> Result<Graph, GraphError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    graph_from_bundle_bytes(raw)
}

/// Loads a graph from bundle bytes (a graph bundle or a full serving
/// snapshot — any bundle carrying the `g.*` sections).
pub fn graph_from_bundle_bytes(raw: Vec<u8>) -> Result<Graph, GraphError> {
    let reader = crate::container::BundleReader::open(raw).map_err(|e| GraphError::Format(e.to_string()))?;
    Graph::from_bundle(&reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn edge_list_roundtrip_up_to_relabeling() {
        // read_edge_list remaps ids in first-seen order, so the roundtrip is
        // exact only up to an isomorphism; check isomorphism invariants.
        let g = gen::erdos_renyi(60, 200, 9);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        let degs = |g: &Graph| {
            let mut d: Vec<(u32, u32)> =
                (0..g.num_vertices()).map(|v| (g.in_degree(v), g.out_degree(v))).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degs(&g), degs(&g2));
    }

    #[test]
    fn edge_list_roundtrip_exact_for_natural_order() {
        // A path visits ids in increasing order, so remapping is identity.
        let g = gen::fixtures::path(20);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        assert_eq!(read_edge_list(&buf[..]).unwrap(), g);
    }

    #[test]
    fn edge_list_parses_snap_style() {
        let text = "# Directed graph\n# Nodes: 4 Edges: 3\n10 20\n20\t30\n  30   10\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let err = read_edge_list("1 banana\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
        let err = read_edge_list("42\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn binary_roundtrip() {
        let g = gen::copying_web(80, 4, 0.7, 17);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic_and_truncation() {
        let g = gen::erdos_renyi(10, 20, 1);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(read_binary(&bad[..]), Err(GraphError::Format(_))));
        let truncated = &buf[..buf.len() - 3];
        assert!(matches!(read_binary(truncated), Err(GraphError::Format(_))));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = Graph::from_edges(0, vec![]).unwrap();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap().num_vertices(), 0);
    }
}
