//! Vectorized co-location counting kernels for the wave estimator.
//!
//! Every Algorithm 1 term needs the exact integer `Σ_w α(w)·β(w)` — how
//! many (u-walk, v-walk) pairs sit on the same vertex this step. The
//! count is an order-insensitive `u64` sum, so *any* counting layout
//! (hash probe, linear scan, SIMD compare, sort-and-merge) produces the
//! same integer, and the floating-point term formed from it is therefore
//! bit-identical across kernels. That freedom is what this module
//! exploits:
//!
//! * **Small `r` (flat rows)** — each candidate's u-side positions live
//!   in a fixed-width row padded to a multiple of [`LANES`] with
//!   [`DEAD`] (`u32::MAX`, never a real vertex id). The row is compared
//!   against one splatted v-position 4 (SSE2) or 8 (AVX2) lanes at a
//!   time with no length checks: `cmpeq` + `movemask` + `popcount`.
//!   [`count_matches_padded`] is the entry point; the portable fallback
//!   is a branchless scan the autovectorizer handles on other
//!   architectures.
//! * **Large `r`** — quadratic row compares stop paying past a couple
//!   of cache lines, so [`count_matches_sorted`] sorts both position
//!   buffers and merges equal-value runs (`Σ run_u(w)·run_v(w)`),
//!   replacing the per-walk hash-map probes the wave estimator used
//!   before.
//!
//! # Runtime dispatch
//!
//! [`dispatch`] picks the widest kernel the CPU supports, once per
//! process: AVX2 behind `is_x86_feature_detected!`, else SSE2 (baseline
//! on `x86_64`, no detection needed), else the portable scalar loop.
//! Setting `SRS_SCALAR_KERNEL=1` forces the portable kernel — CI runs a
//! leg with it set and diffs `--hits-out` files to prove the paths are
//! bit-identical end to end. Every kernel entry point also takes the
//! [`Kernel`] explicitly so tests can pin all variants against each
//! other in one process.

use srs_graph::VertexId;
use std::sync::OnceLock;

pub use srs_mc::DEAD;

/// Row padding granularity: flat u-side rows are padded with [`DEAD`] to
/// a multiple of this many lanes so the widest compare loop never needs
/// a tail.
pub const LANES: usize = 8;

/// Rounds a per-candidate walk count up to the padded row stride.
#[inline]
pub fn pad_stride(r: usize) -> usize {
    r.div_ceil(LANES) * LANES
}

/// A co-location counting kernel. All variants produce identical counts;
/// they differ only in how many lanes they compare per instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    /// Branchless scalar loop; autovectorizable, works everywhere.
    Portable,
    /// 4 lanes per compare. Baseline on `x86_64` — always available.
    #[cfg(target_arch = "x86_64")]
    Sse2,
    /// 8 lanes per compare, gated on runtime detection.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

static SELECTED: OnceLock<Kernel> = OnceLock::new();

/// The kernel the current process uses: the widest supported one, unless
/// `SRS_SCALAR_KERNEL` is set (to anything but `0`), which forces
/// [`Kernel::Portable`]. Resolved once and cached.
pub fn dispatch() -> Kernel {
    *SELECTED.get_or_init(|| {
        if std::env::var("SRS_SCALAR_KERNEL").is_ok_and(|v| v != "0") {
            return Kernel::Portable;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                Kernel::Avx2
            } else {
                Kernel::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Portable
    })
}

/// Every kernel variant available on this CPU (for equivalence tests).
pub fn available() -> Vec<Kernel> {
    let mut kinds = vec![Kernel::Portable];
    #[cfg(target_arch = "x86_64")]
    {
        kinds.push(Kernel::Sse2);
        if std::arch::is_x86_feature_detected!("avx2") {
            kinds.push(Kernel::Avx2);
        }
    }
    kinds
}

/// Counts pairs `(i, j)` with `u_row[i] == v_pos[j]` over a [`DEAD`]-padded
/// row. `u_row.len()` must be a multiple of [`LANES`] (see [`pad_stride`]);
/// padding never matches because [`DEAD`] is not a vertex id, and `v_pos`
/// holds only live walk positions.
#[inline]
pub fn count_matches_padded(kernel: Kernel, u_row: &[VertexId], v_pos: &[VertexId]) -> u64 {
    debug_assert_eq!(u_row.len() % LANES, 0, "u row not padded to a lane multiple");
    match kernel {
        Kernel::Portable => count_matches_portable(u_row, v_pos),
        // SAFETY: SSE2 is part of the x86_64 baseline.
        #[cfg(target_arch = "x86_64")]
        Kernel::Sse2 => unsafe { count_matches_sse2(u_row, v_pos) },
        // SAFETY: `Kernel::Avx2` is only constructed after
        // `is_x86_feature_detected!("avx2")` succeeds.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { count_matches_avx2(u_row, v_pos) },
    }
}

fn count_matches_portable(u_row: &[VertexId], v_pos: &[VertexId]) -> u64 {
    let mut total = 0u64;
    for &w in v_pos {
        let mut hits = 0u32;
        for &x in u_row {
            hits += (x == w) as u32;
        }
        total += hits as u64;
    }
    total
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn count_matches_sse2(u_row: &[VertexId], v_pos: &[VertexId]) -> u64 {
    use core::arch::x86_64::*;
    let chunks = u_row.len() / 4;
    let base = u_row.as_ptr() as *const __m128i;
    let mut total = 0u64;
    for &w in v_pos {
        let needle = _mm_set1_epi32(w as i32);
        let mut hits = 0u32;
        for c in 0..chunks {
            let eq = _mm_cmpeq_epi32(_mm_loadu_si128(base.add(c)), needle);
            hits += (_mm_movemask_ps(_mm_castsi128_ps(eq)) as u32).count_ones();
        }
        total += hits as u64;
    }
    total
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_matches_avx2(u_row: &[VertexId], v_pos: &[VertexId]) -> u64 {
    use core::arch::x86_64::*;
    let chunks = u_row.len() / 8;
    let base = u_row.as_ptr() as *const __m256i;
    let mut total = 0u64;
    for &w in v_pos {
        let needle = _mm256_set1_epi32(w as i32);
        let mut hits = 0u32;
        for c in 0..chunks {
            let eq = _mm256_cmpeq_epi32(_mm256_loadu_si256(base.add(c)), needle);
            hits += (_mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32).count_ones();
        }
        total += hits as u64;
    }
    total
}

/// Counts co-located pairs by sorting both position buffers in place and
/// multiplying the lengths of equal-value runs: `Σ_w α(w)·β(w)` exactly.
/// This replaces the large-`r` hash-map path — two cache-linear sorts of
/// at most `r` `u32`s beat `r` hash probes, and the result is the same
/// integer by construction.
pub fn count_matches_sorted(u: &mut [VertexId], v: &mut [VertexId]) -> u64 {
    u.sort_unstable();
    v.sort_unstable();
    let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
    while i < u.len() && j < v.len() {
        let (a, b) = (u[i], v[j]);
        if a < b {
            i += 1;
        } else if b < a {
            j += 1;
        } else {
            let i0 = i;
            while i < u.len() && u[i] == a {
                i += 1;
            }
            let j0 = j;
            while j < v.len() && v[j] == a {
                j += 1;
            }
            total += ((i - i0) * (j - j0)) as u64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_count(u: &[VertexId], v: &[VertexId]) -> u64 {
        v.iter().map(|&w| u.iter().filter(|&&x| x == w).count() as u64).sum()
    }

    #[test]
    fn padded_kernels_agree_with_reference() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % m
        };
        for r in [1usize, 3, 4, 7, 8, 9, 15, 16] {
            let stride = pad_stride(r);
            for trial in 0..50 {
                let vocab = 1 + next(12);
                let u_live = (trial % (r + 1)).min(r);
                let v_live = next(r as u32 + 1) as usize;
                let mut row = vec![DEAD; stride];
                for slot in row.iter_mut().take(u_live) {
                    *slot = next(vocab);
                }
                let v_pos: Vec<VertexId> = (0..v_live).map(|_| next(vocab)).collect();
                let want = reference_count(&row[..u_live], &v_pos);
                for kernel in available() {
                    let got = count_matches_padded(kernel, &row, &v_pos);
                    assert_eq!(got, want, "kernel {kernel:?} r={r} trial={trial}");
                }
            }
        }
    }

    #[test]
    fn dead_padding_never_matches() {
        // Even if a v-side walk somehow carried the sentinel, padding rows
        // would overcount; the contract is that DEAD never reaches v_pos.
        // What the kernel must guarantee is that pad lanes never match a
        // real vertex id, including id 0 and u32::MAX - 1.
        let row = vec![DEAD; LANES];
        for kernel in available() {
            assert_eq!(count_matches_padded(kernel, &row, &[0, 1, u32::MAX - 1]), 0, "{kernel:?}");
        }
    }

    #[test]
    fn sorted_merge_agrees_with_reference() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[]),
            (&[5], &[5]),
            (&[1, 1, 1], &[1, 1]),
            (&[2, 9, 4, 2, 7], &[7, 2, 2, 11]),
            (&[0, u32::MAX - 2], &[u32::MAX - 2, 0, 3]),
        ];
        for (u, v) in cases {
            let want = reference_count(u, v);
            let (mut a, mut b) = (u.to_vec(), v.to_vec());
            assert_eq!(count_matches_sorted(&mut a, &mut b), want, "u={u:?} v={v:?}");
        }
    }

    #[test]
    fn dispatch_is_stable_and_available() {
        let k = dispatch();
        assert_eq!(k, dispatch());
        assert!(available().contains(&k));
    }
}
