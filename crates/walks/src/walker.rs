//! Allocation-free single-step walk sampler driven by an RNG.
//!
//! The Monte-Carlo hitting- and cover-time estimators follow one walker
//! for many steps, drawing each step from a sequential RNG; the sampler
//! reads the CSR adjacency directly instead of touching any matrix. (The
//! protocol round loops step whole cohorts through the counter-based
//! kernel in [`crate::batch`] instead.)

use rand::Rng;
use tlb_graphs::{Graph, NodeId};

use crate::transition::WalkKind;

/// Stateless sampler for one step of a walk on a borrowed graph.
#[derive(Debug, Clone, Copy)]
pub struct Walker<'g> {
    g: &'g Graph,
    kind: WalkKind,
    max_degree: u32,
}

impl<'g> Walker<'g> {
    /// Create a sampler for `kind` on `g`.
    pub fn new(g: &'g Graph, kind: WalkKind) -> Self {
        Walker { g, kind, max_degree: g.max_degree() }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Walk kind.
    pub fn kind(&self) -> WalkKind {
        self.kind
    }

    /// One max-degree step: draw a slot in `0..d`; slots beyond `deg(v)`
    /// are the self-loop mass `(d − d_v)/d`. Shared by the max-degree and
    /// lazy kinds so the lazy walk needs no temporary sampler per step.
    #[inline]
    fn step_max_degree<R: Rng + ?Sized>(&self, v: NodeId, rng: &mut R) -> NodeId {
        if self.max_degree == 0 {
            return v;
        }
        let slot = rng.gen_range(0..self.max_degree);
        let nbrs = self.g.neighbors(v);
        if (slot as usize) < nbrs.len() {
            nbrs[slot as usize]
        } else {
            v
        }
    }

    /// Sample the next position from `v`.
    #[inline]
    pub fn step<R: Rng + ?Sized>(&self, v: NodeId, rng: &mut R) -> NodeId {
        match self.kind {
            WalkKind::MaxDegree => self.step_max_degree(v, rng),
            WalkKind::Lazy => {
                if rng.gen::<bool>() {
                    v
                } else {
                    self.step_max_degree(v, rng)
                }
            }
            WalkKind::Simple => {
                let nbrs = self.g.neighbors(v);
                assert!(!nbrs.is_empty(), "simple walk undefined on isolated node {v}");
                nbrs[rng.gen_range(0..nbrs.len())]
            }
        }
    }

    /// Run a walk for `steps` steps and return the end position.
    pub fn walk<R: Rng + ?Sized>(&self, start: NodeId, steps: usize, rng: &mut R) -> NodeId {
        let mut v = start;
        for _ in 0..steps {
            v = self.step(v, rng);
        }
        v
    }

    /// Steps until first arrival at `target` (counting the arriving step),
    /// capped at `max_steps`. `Some(0)` if `start == target`.
    pub fn steps_to_hit<R: Rng + ?Sized>(
        &self,
        start: NodeId,
        target: NodeId,
        max_steps: usize,
        rng: &mut R,
    ) -> Option<usize> {
        if start == target {
            return Some(0);
        }
        let mut v = start;
        for t in 1..=max_steps {
            v = self.step(v, rng);
            if v == target {
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tlb_graphs::generators::{complete, cycle, star};

    #[test]
    fn step_on_complete_graph_never_stays() {
        let g = complete(5);
        let w = Walker::new(&g, WalkKind::MaxDegree);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            assert_ne!(w.step(2, &mut rng), 2);
        }
    }

    #[test]
    fn step_frequencies_match_max_degree_matrix_on_star() {
        // Leaf of star(4): self-loop prob 2/3, hub prob 1/3 (d = 3).
        let g = star(4);
        let w = Walker::new(&g, WalkKind::MaxDegree);
        let mut rng = SmallRng::seed_from_u64(9);
        let trials = 60_000;
        let mut to_hub = 0usize;
        for _ in 0..trials {
            if w.step(1, &mut rng) == 0 {
                to_hub += 1;
            }
        }
        let freq = to_hub as f64 / trials as f64;
        assert!((freq - 1.0 / 3.0).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn lazy_walk_stays_about_half_the_time() {
        let g = cycle(8);
        let w = Walker::new(&g, WalkKind::Lazy);
        let mut rng = SmallRng::seed_from_u64(5);
        let trials = 40_000;
        let stays = (0..trials).filter(|_| w.step(3, &mut rng) == 3).count();
        let freq = stays as f64 / trials as f64;
        assert!((freq - 0.5).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn hit_detection_counts_steps() {
        let g = complete(4);
        let w = Walker::new(&g, WalkKind::MaxDegree);
        let mut rng = SmallRng::seed_from_u64(11);
        assert_eq!(w.steps_to_hit(1, 1, 10, &mut rng), Some(0));
        let hit = w.steps_to_hit(0, 3, 10_000, &mut rng).unwrap();
        assert!(hit >= 1);
    }

    #[test]
    fn walk_end_position_is_valid_node() {
        let g = cycle(7);
        let w = Walker::new(&g, WalkKind::MaxDegree);
        let mut rng = SmallRng::seed_from_u64(2);
        for steps in [0, 1, 5, 50] {
            let end = w.walk(0, steps, &mut rng);
            assert!((end as usize) < g.num_nodes());
        }
    }

    #[test]
    fn mean_hitting_on_complete_graph_close_to_n_minus_one() {
        let g = complete(10);
        let w = Walker::new(&g, WalkKind::MaxDegree);
        let mut rng = SmallRng::seed_from_u64(77);
        let trials = 4000;
        let total: usize =
            (0..trials).map(|_| w.steps_to_hit(0, 5, 100_000, &mut rng).unwrap()).sum();
        let mean = total as f64 / trials as f64;
        assert!((mean - 9.0).abs() < 0.5, "mean {mean}");
    }
}
