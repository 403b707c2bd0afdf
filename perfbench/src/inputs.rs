//! Seeded input generation: query streams and edit batches. Everything
//! here is a pure function of the workload seed, so the same seed hands
//! the program byte-identical inputs.

use srs_graph::{Graph, VertexId};
use std::collections::HashSet;
use std::fmt::Write as _;

/// SplitMix64: tiny, seedable, and stable across platforms and releases.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Derives an independent stream seed for one purpose of one workload.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in purpose.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    Rng::new(h).next_u64()
}

/// How query vertices are drawn.
#[derive(Debug, Clone)]
pub enum Popularity {
    /// Probability proportional to in-degree (vertices without in-links,
    /// whose SimRank row is trivially empty, are never drawn).
    DegreeWeighted(Vec<f64>),
    /// Zipf(s) over vertex ranks; ranks map to vertices through a seeded
    /// permutation, so the hot set does not follow vertex ids.
    Zipf { cdf: Vec<f64>, perm: Vec<VertexId> },
    /// Every vertex equally likely.
    Uniform(u32),
}

impl Popularity {
    pub fn degree_weighted(g: &Graph) -> Self {
        let mut cdf = Vec::with_capacity(g.num_vertices() as usize);
        let mut acc = 0.0;
        for v in g.vertices() {
            acc += g.in_degree(v) as f64;
            cdf.push(acc);
        }
        Popularity::DegreeWeighted(cdf)
    }

    pub fn zipf(n: u32, s: f64, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        let mut perm: Vec<VertexId> = (0..n).collect();
        let mut rng = Rng::new(seed);
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Popularity::Zipf { cdf, perm }
    }

    pub fn sample(&self, rng: &mut Rng) -> VertexId {
        let pick = |cdf: &[f64], rng: &mut Rng| {
            let x = rng.unit() * cdf.last().copied().unwrap_or(0.0);
            cdf.partition_point(|&c| c <= x).min(cdf.len() - 1)
        };
        match self {
            Popularity::DegreeWeighted(cdf) => pick(cdf, rng) as VertexId,
            Popularity::Zipf { cdf, perm } => perm[pick(cdf, rng)],
            Popularity::Uniform(n) => rng.below(*n as u64) as VertexId,
        }
    }
}

/// `count` draws from `pop`, with no vertex repeated inside the list (a
/// repeat would be answered by the batch engine's in-batch dedup instead
/// of being computed).
pub fn distinct_queries(pop: &Popularity, count: usize, rng: &mut Rng) -> Vec<VertexId> {
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = pop.sample(rng);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// Writes a query-id file: one vertex id per line.
pub fn query_file(ids: &[VertexId]) -> String {
    let mut s = String::with_capacity(ids.len() * 7);
    for v in ids {
        let _ = writeln!(s, "{v}");
    }
    s
}

/// Generates `batches` edit batches against `g` in the `GraphDelta` text
/// form, each with `inserts` new edges and `deletes` removed edges. Every
/// inserted edge is absent from `g` and every deleted one present, and
/// no edge appears in two batches, so each batch applied in sequence
/// really changes the graph.
pub fn edit_batches(g: &Graph, batches: usize, inserts: usize, deletes: usize, seed: u64) -> Vec<String> {
    let n = g.num_vertices() as u64;
    let mut rng = Rng::new(seed);
    let mut used: HashSet<(VertexId, VertexId)> = HashSet::new();
    let mut out = Vec::with_capacity(batches);
    for b in 0..batches {
        let mut text = format!("# edit batch {b}: {inserts} insertions, {deletes} deletions\n");
        let mut added = 0;
        while added < inserts {
            let (u, v) = (rng.below(n) as VertexId, rng.below(n) as VertexId);
            if u != v && !g.has_edge(u, v) && used.insert((u, v)) {
                let _ = writeln!(text, "+ {u} {v}");
                added += 1;
            }
        }
        let mut removed = 0;
        while removed < deletes {
            let v = rng.below(n) as VertexId;
            let ins = g.in_neighbors(v);
            if ins.is_empty() {
                continue;
            }
            let u = ins[rng.below(ins.len() as u64) as usize];
            if used.insert((u, v)) {
                let _ = writeln!(text, "- {u} {v}");
                removed += 1;
            }
        }
        out.push(text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_graph::{gen, GraphDelta};

    #[test]
    fn zipf_is_deterministic_in_the_seed_and_skewed() {
        let a = Popularity::zipf(5000, 1.0, 7);
        let b = Popularity::zipf(5000, 1.0, 7);
        let c = Popularity::zipf(5000, 1.0, 8);
        let draw = |p: &Popularity, s| {
            let mut r = Rng::new(s);
            (0..2000).map(|_| p.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(&a, 1), draw(&b, 1));
        assert_ne!(draw(&a, 1), draw(&c, 1), "another seed permutes the hot set");
        assert_ne!(draw(&a, 1), draw(&a, 2));
        // Rank 1 alone carries 1/H(5000) ≈ 11% of the mass.
        let Popularity::Zipf { perm, .. } = &a else { unreachable!() };
        let hot = draw(&a, 3).iter().filter(|&&v| v == perm[0]).count();
        assert!((150..300).contains(&hot), "{hot}");
    }

    #[test]
    fn degree_weighted_is_deterministic_and_skips_sourceless_vertices() {
        let g = gen::copying_web(2000, 5, 0.8, 3);
        let pop = Popularity::degree_weighted(&g);
        let q1 = distinct_queries(&pop, 300, &mut Rng::new(11));
        let q2 = distinct_queries(&pop, 300, &mut Rng::new(11));
        assert_eq!(q1, q2);
        assert_ne!(q1, distinct_queries(&pop, 300, &mut Rng::new(12)));
        assert!(q1.iter().all(|&v| g.in_degree(v) > 0));
        assert_eq!(q1.iter().collect::<HashSet<_>>().len(), 300, "no repeats within a list");
        let text = query_file(&q1[..3]);
        assert_eq!(text.lines().count(), 3);
        assert_eq!(text.lines().next().unwrap().parse::<u32>().unwrap(), q1[0]);
    }

    #[test]
    fn edit_batches_are_valid_graph_deltas_that_change_the_graph() {
        let g = gen::copying_web(3000, 5, 0.8, 5);
        let batches = edit_batches(&g, 4, 24, 8, 99);
        assert_eq!(batches, edit_batches(&g, 4, 24, 8, 99));
        let mut cur = g.clone();
        for text in &batches {
            let delta = GraphDelta::parse_text(text).expect("valid GraphDelta text");
            assert_eq!(delta.num_insertions(), 24);
            assert_eq!(delta.num_deletions(), 8);
            let next = delta.apply(&cur).expect("applies");
            assert_eq!(next.num_edges(), cur.num_edges() + 24 - 8);
            cur = next;
        }
    }

    #[test]
    fn sub_seeds_separate_purposes() {
        assert_eq!(sub_seed(5, "queries"), sub_seed(5, "queries"));
        assert_ne!(sub_seed(5, "queries"), sub_seed(5, "edits"));
        assert_ne!(sub_seed(5, "queries"), sub_seed(6, "queries"));
    }
}
