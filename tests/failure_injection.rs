//! Failure injection: corrupted or adversarial byte streams must surface
//! as errors, never as panics, hangs, or silently-wrong data.

use proptest::prelude::*;
use simrank_search::graph::{gen, io, GraphError};
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
