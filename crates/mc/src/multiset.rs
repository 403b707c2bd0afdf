//! Position-count multisets for Monte-Carlo inner products.
//!
//! Algorithm 1 estimates each series term as
//! `cᵗ Σ_w D_ww · α(w) β(w) / R²`, where `α(w)`/`β(w)` count how many of the
//! `u`-walks / `v`-walks sit at `w` at step `t` (equation (14)). This module
//! provides a reusable counting table so the per-step cost is `O(R)` with no
//! allocation after warm-up, exactly the hash-table evaluation the paper
//! describes.

use crate::walker::DEAD;
use srs_graph::hash::FxHashMap;
use srs_graph::VertexId;

/// Reusable vertex→count table.
#[derive(Debug, Default)]
pub struct PositionCounter {
    counts: FxHashMap<VertexId, u32>,
}

impl PositionCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears and re-fills the table from `positions`, ignoring [`DEAD`]
    /// entries.
    pub fn fill(&mut self, positions: &[VertexId]) {
        self.counts.clear();
        for &p in positions {
            if p != DEAD {
                *self.counts.entry(p).or_insert(0) += 1;
            }
        }
    }

    /// Removes all counts (keeps capacity).
    #[inline]
    pub fn clear(&mut self) {
        self.counts.clear();
    }

    /// Increments the count of one live position — the fused-stepping
    /// kernel calls this once per surviving walk per step.
    #[inline]
    pub fn add(&mut self, w: VertexId) {
        *self.counts.entry(w).or_insert(0) += 1;
    }

    /// Count of walks at vertex `w`.
    #[inline]
    pub fn count(&self, w: VertexId) -> u32 {
        self.counts.get(&w).copied().unwrap_or(0)
    }

    /// Number of distinct live positions.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Iterates `(vertex, count)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        self.counts.iter().map(|(&w, &c)| (w, c))
    }

    /// `Σ_w self(w) · other(w)` — the co-location inner product of
    /// Algorithm 1, iterating the smaller table.
    pub fn dot(&self, other: &PositionCounter) -> u64 {
        let (small, large) =
            if self.counts.len() <= other.counts.len() { (self, other) } else { (other, self) };
        small.counts.iter().map(|(&w, &c)| c as u64 * large.count(w) as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_count() {
        let mut c = PositionCounter::new();
        c.fill(&[1, 2, 2, 3, 3, 3, DEAD]);
        assert_eq!(c.count(1), 1);
        assert_eq!(c.count(2), 2);
        assert_eq!(c.count(3), 3);
        assert_eq!(c.count(4), 0);
        assert_eq!(c.distinct(), 3);
    }

    #[test]
    fn refill_resets() {
        let mut c = PositionCounter::new();
        c.fill(&[5, 5]);
        c.fill(&[6]);
        assert_eq!(c.count(5), 0);
        assert_eq!(c.count(6), 1);
    }

    #[test]
    fn dot_product_symmetric() {
        let mut a = PositionCounter::new();
        let mut b = PositionCounter::new();
        a.fill(&[1, 1, 2, 3]);
        b.fill(&[1, 2, 2, 4]);
        // Σ: w=1: 2*1, w=2: 1*2 → 4
        assert_eq!(a.dot(&b), 4);
        assert_eq!(b.dot(&a), 4);
    }

    #[test]
    fn dot_with_disjoint_is_zero() {
        let mut a = PositionCounter::new();
        let mut b = PositionCounter::new();
        a.fill(&[1, 2]);
        b.fill(&[3, 4]);
        assert_eq!(a.dot(&b), 0);
    }

    #[test]
    fn all_dead_is_empty() {
        let mut a = PositionCounter::new();
        a.fill(&[DEAD, DEAD]);
        assert_eq!(a.distinct(), 0);
    }
}
