//! The exact **two-step head**: the served query's scorer.
//!
//! The paper's linear form (§3) is `S = Σ_t cᵗ (Pᵀ)ᵗ D Pᵗ`, with `P` the
//! reverse-transition matrix (column `u` is uniform over `In(u)`). Its
//! first `h` terms are a deterministic local computation. For `v ≠ u` the
//! `t = 0` term vanishes, and the head through `h = 2` is
//!
//! ```text
//! head(v) = Σ_{t=1,2} cᵗ ⟨Pᵗe_u, D Pᵗe_v⟩ = c · (Pᵀ g₁)(v),
//! g₁      = D z₁ + c · Pᵀ(D z₂),   z_t = Pᵗ e_u,
//! ```
//!
//! where `(Pᵀx)(v)` is the mean of `x` over `In(v)`. Every term of the
//! tail `t > 2` is non-negative, so the head is a certified lower bound
//! on the truncated score `s(u, v)`. [`HeadPush`] evaluates it in three
//! sparse steps:
//!
//! 1. **Forward** ([`HeadPush::forward`]) — `z₁` is uniform over
//!    `In(u)`; `z₂` scatters it one more step over the in-CSR.
//! 2. **Bound** ([`HeadPush::bound`]) — `B(u) = Σ_{t=1,2} cᵗ ·
//!    max_w D_w z_t(w)`. Each term `cᵗ Σ_w z_t(w) D_w (Pᵗe_v)(w)` is at
//!    most `cᵗ max_w(D_w z_t(w)) · ‖Pᵗe_v‖₁`, and `P` is substochastic,
//!    so `head(v) ≤ B(u)` for every `v ≠ u`. When `B(u) < θ` the answer
//!    is empty without the backward step.
//! 3. **Backward** ([`HeadPush::backward`]) — `Pᵀ` as a scatter over the
//!    out-CSR: every `w` in the support sends `x(w)` to each `v ∈ Out(w)`,
//!    and each touched `v` divides by `|In(v)|`. The vector pushed is
//!    first moved out of the accumulator into a sparse list, so one
//!    accumulator serves both pushes: `D z₂` goes out and `c Pᵀ(D z₂)`
//!    comes in, `g₁` is formed in place, then `g₁` goes out and the head
//!    comes in.
//!
//! The push draws no random numbers. Its summation order follows the CSR
//! rows and the touched lists, which the rows fix, so scores are
//! byte-identical for every thread count, load mode, shard count and
//! delta chain over the same graph. They agree with
//! `srs_exact::linearized::single_source` at `T = 3` to rounding.
//!
//! The scratch holds one dense `n`-sized accumulator with a touched list,
//! in the idiom of the structural-zero screen: reset through the list, so
//! a warm push allocates nothing and costs time in the support it
//! touches, never in `n`. `z₁` needs no array: it is `1/|In(u)|` on
//! `In(u)`. Every value pushed is positive, so "first touch" is "the
//! accumulator still reads 0.0".
//!
//! The backward step reads the out-CSR, which a graph loaded at
//! [`srs_graph::ValidationLevel::Deep`] has proven to be the exact
//! transpose of the in-CSR. A forged out-CSR accepted at the `Safety`
//! level can therefore give wrong scores, never a non-finite one or an
//! out-of-range access.

use crate::Diagonal;
use srs_graph::{Graph, VertexId};

/// Relative slack on [`HeadPush::bound`], so the float sum of the bound
/// never rounds below a head it provably dominates.
const BOUND_SLACK: f64 = 1e-12;

/// Per-query state of the head push (see the module docs).
#[derive(Default)]
pub(crate) struct HeadPush {
    /// `z₂` after [`HeadPush::forward`]; the head after
    /// [`HeadPush::backward`]. Reset through `touched` by the next
    /// forward step.
    acc: Vec<f64>,
    /// Vertices with a non-zero entry in `acc`.
    touched: Vec<VertexId>,
    /// The vector a backward step pushes, moved out of `acc`.
    held: Vec<(VertexId, f64)>,
    /// The query vertex of the last forward step.
    source: VertexId,
    /// Edges the push scanned since the last forward step.
    edges: u64,
}

impl HeadPush {
    /// Step 1 for query vertex `u`: `z₂ = P² e_u` into the accumulator,
    /// over the in-CSR. Resets whatever an earlier query left.
    pub(crate) fn forward(&mut self, g: &Graph, u: VertexId) {
        for w in self.touched.drain(..) {
            self.acc[w as usize] = 0.0;
        }
        let n = g.num_vertices() as usize;
        if self.acc.len() < n {
            // All-zero here; a fresh zeroed allocation stays non-resident
            // until the push touches its pages.
            self.acc = vec![0.0; n];
        }
        self.source = u;
        let ins = g.in_neighbors(u);
        self.edges = ins.len() as u64;
        if ins.is_empty() {
            return;
        }
        let z1 = 1.0 / ins.len() as f64;
        for &w in ins {
            let row = g.in_neighbors(w);
            self.edges += row.len() as u64;
            if row.is_empty() {
                continue;
            }
            let share = z1 / row.len() as f64;
            for &x in row {
                scatter(&mut self.acc, &mut self.touched, x, share);
            }
        }
    }

    /// Step 2: `B(u) = Σ_{t=1,2} cᵗ · max_w D_w z_t(w)` (plus a rounding
    /// slack), an upper bound on the head of every `v ≠ u`.
    pub(crate) fn bound(&self, g: &Graph, c: f64, diag: &Diagonal) -> f64 {
        let ins = g.in_neighbors(self.source);
        if ins.is_empty() {
            return 0.0;
        }
        let z1 = 1.0 / ins.len() as f64;
        let d1 = ins.iter().map(|&w| diag.weight(w)).fold(0.0, f64::max);
        let m2 = self.touched.iter().map(|&w| diag.weight(w) * self.acc[w as usize]).fold(0.0, f64::max);
        (c * (d1 * z1) + c * c * m2) * (1.0 + BOUND_SLACK)
    }

    /// Step 3: the head of every vertex into the accumulator, its support
    /// in [`HeadPush::support`], over the out-CSR. Must follow
    /// [`HeadPush::forward`] for the same graph.
    pub(crate) fn backward(&mut self, g: &Graph, c: f64, diag: &Diagonal) {
        // c Pᵀ(D z₂).
        self.hold(|w, z2| diag.weight(w) * z2);
        self.push_back(g, c);
        // g₁ = D z₁ + c Pᵀ(D z₂); z₁ is 1/|In(u)| on In(u).
        let ins = g.in_neighbors(self.source);
        if !ins.is_empty() {
            let z1 = 1.0 / ins.len() as f64;
            for &w in ins {
                let slot = &mut self.acc[w as usize];
                let g1 = diag.weight(w) * z1 + *slot;
                if *slot == 0.0 && g1 > 0.0 {
                    self.touched.push(w);
                }
                *slot = g1;
            }
        }
        // head = c Pᵀ g₁.
        self.hold(|_, g1| g1);
        self.push_back(g, c);
    }

    /// The vertices with a positive head after [`HeadPush::backward`],
    /// each once, the query vertex among them when it has one.
    pub(crate) fn support(&self) -> &[VertexId] {
        &self.touched
    }

    /// `v`'s head after [`HeadPush::backward`] (0.0 off the support).
    #[inline]
    pub(crate) fn head(&self, v: VertexId) -> f64 {
        self.acc[v as usize]
    }

    /// Edges the forward and backward steps scanned for this query.
    pub(crate) fn edges(&self) -> u64 {
        self.edges
    }

    /// Moves the accumulator's entries into `held`, each mapped by `f`,
    /// in touched order, and leaves the accumulator all-zero.
    fn hold(&mut self, f: impl Fn(VertexId, f64) -> f64) {
        self.held.clear();
        for w in self.touched.drain(..) {
            let slot = &mut self.acc[w as usize];
            self.held.push((w, f(w, *slot)));
            *slot = 0.0;
        }
    }

    /// `acc = c · Pᵀ x` for the held `x`: every positive entry is
    /// scattered over its out-row, then each touched vertex takes the
    /// mean over its in-row.
    fn push_back(&mut self, g: &Graph, c: f64) {
        for &(w, x) in &self.held {
            if x > 0.0 {
                let row = g.out_neighbors(w);
                self.edges += row.len() as u64;
                for &v in row {
                    scatter(&mut self.acc, &mut self.touched, v, x);
                }
            }
        }
        for &v in &self.touched {
            let slot = &mut self.acc[v as usize];
            *slot = c * (*slot / mean_degree(g, v));
        }
    }
}

/// Adds the positive `x` into `acc[v]`, listing `v` on first touch.
#[inline]
fn scatter(acc: &mut [f64], touched: &mut Vec<VertexId>, v: VertexId, x: f64) {
    let slot = &mut acc[v as usize];
    if *slot == 0.0 {
        touched.push(v);
    }
    *slot += x;
}

/// `|In(v)|` as the divisor of a mean over `In(v)`. A vertex an honest
/// out-CSR reaches has an in-link; the floor of 1 keeps a forged one's
/// scores finite.
#[inline]
fn mean_degree(g: &Graph, v: VertexId) -> f64 {
    g.in_degree(v).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_exact::{diagonal, linearized, ExactParams};
    use srs_graph::gen::{self, fixtures};

    /// The push's head against the dense solver at `T = 3`, every vertex.
    fn check(g: &Graph, c: f64, diag: &Diagonal, dense: &[f64]) {
        let mut push = HeadPush::default();
        for u in g.vertices() {
            push.forward(g, u);
            let bound = push.bound(g, c, diag);
            push.backward(g, c, diag);
            let exact = linearized::single_source(g, u, &ExactParams::new(c, 3), dense);
            let mut listed = vec![false; g.num_vertices() as usize];
            for &v in push.support() {
                assert!(!listed[v as usize], "u={u}: {v} listed twice");
                listed[v as usize] = true;
                assert!(push.head(v) > 0.0, "u={u} v={v}");
            }
            for v in g.vertices().filter(|&v| v != u) {
                let (got, want) = (push.head(v), exact[v as usize]);
                assert!((got - want).abs() <= 1e-12, "u={u} v={v}: push {got}, dense {want}");
                assert_eq!(listed[v as usize], want > 0.0, "u={u} v={v}: support");
                assert!(got <= bound, "u={u} v={v}: head {got} above B(u) = {bound}");
            }
        }
    }

    #[test]
    fn head_equals_the_dense_solver_at_three_terms() {
        for g in [
            fixtures::claw(),
            gen::copying_web(300, 4, 0.8, 3),
            gen::preferential_attachment_windowed(300, 5, 60, 4),
        ] {
            let n = g.num_vertices() as usize;
            check(&g, 0.6, &Diagonal::paper_default(0.6), &diagonal::uniform(n, 0.6));
            let per: Vec<f64> = (0..n).map(|w| 0.2 + 0.6 * ((w * 37 % 11) as f64 / 10.0)).collect();
            check(&g, 0.8, &Diagonal::PerVertex(per.clone().into()), &per);
        }
    }

    #[test]
    fn a_vertex_without_in_links_has_an_empty_head() {
        let g = gen::copying_web(200, 4, 0.8, 5);
        let u = g.vertices().find(|&u| g.in_degree(u) == 0).expect("web graphs have sources");
        let mut push = HeadPush::default();
        push.forward(&g, u);
        assert_eq!(push.bound(&g, 0.6, &Diagonal::paper_default(0.6)), 0.0);
        push.backward(&g, 0.6, &Diagonal::paper_default(0.6));
        assert!(push.support().is_empty());
        assert_eq!(push.edges(), 0);
    }
}
