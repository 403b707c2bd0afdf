//! Failure injection: corrupted or adversarial byte streams must surface
//! as errors, never as panics, hangs, or silently-wrong data.

use proptest::prelude::*;
use simrank_search::graph::container::{BundleReader, BundleWriter};
use simrank_search::graph::{gen, io, Graph, GraphError, ValidationLevel};
use simrank_search::search::persist::{self, PersistError};
use simrank_search::search::{Diagonal, SimRankParams, TopKIndex};

/// Magics of the retired per-element graph and index streams. Neither is
/// readable any more: both must fail typed, whatever follows them.
const RETIRED_MAGICS: [&[u8; 8]; 2] = [b"SRSCSR01", b"SRSIDX01"];

fn sample_index_bytes() -> Vec<u8> {
    let g = gen::copying_web(60, 3, 0.8, 4);
    let params = SimRankParams { r_bounds: 50, ..Default::default() };
    let idx = TopKIndex::build_with(&g, &params, Diagonal::paper_default(params.c), 1, 1);
    let mut buf = Vec::new();
    persist::save(&idx, &mut buf).unwrap();
    buf
}

fn sample_graph_bytes() -> Vec<u8> {
    let g = gen::erdos_renyi(40, 160, 9);
    let mut buf = Vec::new();
    io::write_binary(&g, &mut buf).unwrap();
    buf
}

#[test]
fn index_every_truncation_point_errors() {
    let buf = sample_index_bytes();
    // Exhaustive truncation: every prefix must either load the full data
    // (only the complete buffer) or error gracefully.
    for cut in 0..buf.len() {
        assert!(persist::load(&buf[..cut]).is_err(), "truncated prefix of {cut} bytes decoded successfully");
    }
    assert!(persist::load(&buf[..]).is_ok());
}

#[test]
fn graph_every_truncation_point_errors() {
    let buf = sample_graph_bytes();
    for cut in 0..buf.len() {
        // Cuts landing exactly on a whole number of edges are
        // indistinguishable only if the header length matched — it won't,
        // because the header records the true edge count.
        assert!(io::read_binary(&buf[..cut]).is_err(), "cut={cut}");
    }
    assert!(io::read_binary(&buf[..]).is_ok());
}

/// `buf` (a bundle) with section `tag`'s payload replaced by `payload`
/// and every checksum recomputed, so only the loader's own checks can
/// reject the result.
fn with_section(buf: Vec<u8>, tag: &str, payload: Vec<u8>) -> Vec<u8> {
    let r = BundleReader::open(buf).unwrap();
    let mut w = BundleWriter::new();
    for i in 0..r.num_sections() {
        let t = r.section_tag(i).unwrap();
        let bytes = if t == tag { payload.clone() } else { r.bytes(t).unwrap().to_vec() };
        w.add_bytes(t, 8, bytes);
    }
    w.to_bytes()
}

#[test]
fn out_adjacency_that_is_not_the_transpose_is_a_format_error_under_deep() {
    let g = gen::erdos_renyi(40, 160, 9);
    let n = g.num_vertices();
    let buf = sample_graph_bytes();
    let targets = |f: &dyn Fn(u32, &[u32]) -> Vec<u32>| -> Vec<u8> {
        (0..n).flat_map(|u| f(u, g.out_neighbors(u))).flat_map(u32::to_le_bytes).collect()
    };
    // Every target shifted by one and each list re-sorted: offsets, id
    // ranges, descriptors and checksums all hold, but the out-CSR no
    // longer has the in-CSR's edges.
    let shifted = targets(&|_, l| {
        let mut l: Vec<u32> = l.iter().map(|&v| (v + 1) % n).collect();
        l.sort_unstable();
        l
    });
    // The right edges, but one list out of order.
    let u = (0..n).find(|&u| g.out_degree(u) >= 2).unwrap();
    let unsorted = targets(&|w, l| if w == u { l.iter().rev().copied().collect() } else { l.to_vec() });
    for (what, payload) in [("shifted targets", shifted), ("unsorted list", unsorted)] {
        let forged = with_section(buf.clone(), "g.out_tgt", payload);
        let err = io::read_binary(&forged[..]).err();
        assert!(matches!(err, Some(GraphError::Format(_))), "{what}: {err:?}");
        // Safety proves only that every access stays in range.
        let r = BundleReader::open(forged).unwrap();
        assert!(Graph::from_bundle_with(&r, ValidationLevel::Safety).is_ok(), "{what}");
    }
    // The untouched bundle still loads under Deep.
    assert_eq!(io::read_binary(&buf[..]).unwrap(), g);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_random_single_byte_flips_never_panic(pos in 0usize..4096, bit in 0u8..8) {
        let mut buf = sample_index_bytes();
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        // Either rejected, or decoded into something structurally valid —
        // must not panic. (A flip in a float payload is undetectable and
        // legitimately loads.)
        let _ = persist::load(&buf[..]);
    }

    #[test]
    fn graph_random_single_byte_flips_never_panic(pos in 0usize..4096, bit in 0u8..8) {
        let mut buf = sample_graph_bytes();
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        let _ = io::read_binary(&buf[..]);
    }

    #[test]
    fn arbitrary_bytes_never_panic_loaders(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = persist::load(&data[..]);
        let _ = io::read_binary(&data[..]);
        let _ = io::read_edge_list(&data[..]);
        // Behind a retired magic the random bytes include huge length
        // fields: still a format error, never a panic or an allocation.
        for magic in RETIRED_MAGICS {
            let retired = [&magic[..], &data[..]].concat();
            prop_assert!(matches!(persist::load(&retired[..]), Err(PersistError::Format(_))));
            prop_assert!(matches!(io::read_binary(&retired[..]), Err(GraphError::Format(_))));
        }
    }

    #[test]
    fn edge_list_with_arbitrary_text_never_panics(s in "\\PC{0,200}") {
        let _ = io::read_edge_list(s.as_bytes());
    }
}
