//! Property tests for the co-location counting kernels: every layout —
//! portable branchless, SSE2, AVX2 (where the host has them) and the
//! sort-and-merge path — must produce the same exact integer count as a
//! naive nested-loop oracle on arbitrary position rows, including rows on
//! both sides of the old flat-threshold lengths (16/17).

use proptest::prelude::*;
use srs_search::colocate::{self, DEAD};

/// Naive oracle: count every equal (u-slot, v-slot) pair.
fn oracle(u: &[u32], v: &[u32]) -> u64 {
    let mut c = 0u64;
    for &a in u {
        for &b in v {
            if a == b {
                c += 1;
            }
        }
    }
    c
}

/// Row lengths pinned to both sides of the old flat threshold (16) plus
/// the wave's common widths.
const LENS: [usize; 6] = [1, 4, 16, 17, 32, 64];

/// Walk-position rows; a small value universe forces collisions (and
/// runs for the merge path).
fn rows() -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (0usize..LENS.len(), 0usize..LENS.len()).prop_flat_map(|(ui, vi)| {
        (proptest::collection::vec(0u32..96, LENS[ui]), proptest::collection::vec(0u32..96, LENS[vi]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn padded_kernels_match_oracle(uv in rows()) {
        let (u, v) = uv;
        let expected = oracle(&u, &v);
        let stride = colocate::pad_stride(u.len());
        let mut row = vec![DEAD; stride];
        row[..u.len()].copy_from_slice(&u);
        for kernel in colocate::available() {
            prop_assert_eq!(colocate::count_matches_padded(kernel, &row, &v), expected);
        }
    }

    #[test]
    fn sorted_merge_matches_oracle(uv in rows()) {
        let (u, v) = uv;
        let expected = oracle(&u, &v);
        let (mut su, mut sv) = (u, v);
        prop_assert_eq!(colocate::count_matches_sorted(&mut su, &mut sv), expected);
    }

    #[test]
    fn dead_padding_is_inert(uv in rows()) {
        // Extending the padded tail can never change a count: DEAD is not
        // a valid vertex id and v rows never contain it.
        let (u, v) = uv;
        let short = colocate::pad_stride(u.len());
        let long = short + 4 * colocate::LANES;
        let mut a = vec![DEAD; short];
        a[..u.len()].copy_from_slice(&u);
        let mut b = vec![DEAD; long];
        b[..u.len()].copy_from_slice(&u);
        for kernel in colocate::available() {
            prop_assert_eq!(
                colocate::count_matches_padded(kernel, &a, &v),
                colocate::count_matches_padded(kernel, &b, &v)
            );
        }
    }
}
