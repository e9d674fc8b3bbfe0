//! The walk-step law and the one cohort kernel that samples it.
//!
//! Every protocol round moves each ejected task one step of the walk
//! matrix `P`. Both round engines — the sequential steppers in `tlb-core`
//! and the sharded online engine in `tlb-sim` — draw that step here, from
//! one counter-based word stream:
//!
//! * [`walk_word`] — the word of the walker with per-source slot `s` on
//!   node `v` in a round seeded `round_seed` is
//!   `mix_pair(round_seed, v·2³² + s)`. Slots count a node's walkers
//!   within the round, bottom to top. The word is a pure function of
//!   `(round_seed, v, s)`, so it does not depend on cohort order, shard
//!   count, thread count or scheduling;
//! * [`walk_dest`] — the per-word law mapping a word to a destination
//!   (one Lemire widening multiply for the slot; the lazy walk's
//!   stay-coin is the word's top bit);
//! * [`step_cohort`] — the kernel: one step for a whole cohort, bit for
//!   bit `walk_dest(walk_word(..))` per walker. It hoists the
//!   `(kind, regular)` dispatch out of the per-walker loop, resolves
//!   regular graphs through the flat CSR arena (`offsets[v] = v·d`, no
//!   bounds test on the row) and selects the lazy stay branchlessly (a
//!   50/50 coin branch would mispredict half the time).
//!
//! [`mix_pair`] is the one splitmix64 pair mix of the workspace: round
//! seeds, epoch seeds (`tlb_sim::epoch_seed`) and trial seeds
//! (`tlb_experiments::harness::trial_seed`) are all this function.
//!
//! The kernel does not borrow the graph and owns no scratch: callers pass
//! the graph into every call (the online simulation swaps churned
//! snapshots between rounds) and all topology facts are re-read per call.

use rand::lemire_u64;
use tlb_graphs::{Graph, NodeId};

use crate::transition::WalkKind;

/// splitmix64 over the pair `(seed, index)`: decorrelated 64-bit words
/// for neighbouring indices of one seed. The single pair mix behind walk
/// words, round, epoch and trial seeds.
#[inline]
pub fn mix_pair(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The counter-based walk word for the walker with per-source slot index
/// `slot` on node `v` under `round_seed` (see the module docs).
#[inline]
pub fn walk_word(round_seed: u64, v: NodeId, slot: u64) -> u64 {
    debug_assert!(slot < u32::MAX as u64, "per-node ejection slot overflowed u32");
    mix_pair(round_seed, ((v as u64) << 32) | slot)
}

/// Map one walk word to a destination — the per-word law every walk step
/// in the workspace follows:
///
/// * **max-degree**: `slot = lemire(word, Δ)`; move to `neighbors(v)[slot]`
///   if in range, else the `(Δ − deg v)/Δ` self-loop mass stays;
/// * **lazy**: the top bit is the stay-coin; the remaining bits,
///   re-aligned, drive the max-degree slot;
/// * **simple**: `neighbors(v)[lemire(word, deg v)]`.
///
/// An edgeless graph (`Δ = 0`) always stays under max-degree and lazy.
///
/// # Panics
/// For [`WalkKind::Simple`] on an isolated node (the simple walk is
/// undefined there; the protocol steppers reject such configurations at
/// construction).
#[inline]
pub fn walk_dest(g: &Graph, kind: WalkKind, v: NodeId, word: u64) -> NodeId {
    let d = g.max_degree() as u64;
    match kind {
        WalkKind::MaxDegree if d > 0 => max_degree_dest(g, d, v, word),
        WalkKind::Lazy if d > 0 => stay_select(v, max_degree_dest(g, d, v, word << 1), word),
        WalkKind::MaxDegree | WalkKind::Lazy => v,
        WalkKind::Simple => simple_dest(g, v, word),
    }
}

/// Max-degree step from `v` on a graph of maximum degree `d > 0`.
#[inline(always)]
fn max_degree_dest(g: &Graph, d: u64, v: NodeId, word: u64) -> NodeId {
    let slot = lemire_u64(word, d) as usize;
    let nbrs = g.neighbors(v);
    if slot < nbrs.len() {
        nbrs[slot]
    } else {
        v
    }
}

/// Simple-walk step from `v`: a uniform neighbour.
#[inline(always)]
fn simple_dest(g: &Graph, v: NodeId, word: u64) -> NodeId {
    let nbrs = g.neighbors(v);
    assert!(!nbrs.is_empty(), "simple walk undefined on isolated node {v}");
    nbrs[lemire_u64(word, nbrs.len() as u64) as usize]
}

/// The lazy walk's branchless stay-select: `v` when the word's top bit is
/// set, else `dest` (`mask` is all-ones when staying).
#[inline(always)]
fn stay_select(v: NodeId, dest: NodeId, word: u64) -> NodeId {
    let mask = ((word >> 63) as NodeId).wrapping_neg();
    dest ^ ((dest ^ v) & mask)
}

/// Advance every walker in `positions` by one step of `kind` on `g`, in
/// place, with the words of the round seeded `round_seed`. Each walker
/// moves to `walk_dest(g, kind, v, walk_word(round_seed, v, slot))`,
/// where `slot` counts the walkers before it on the same source.
///
/// The cohort must be in node order — the ejection order of every round
/// engine — so that each source's walkers are contiguous and get slots
/// `0, 1, 2, …`.
///
/// # Panics
/// For [`WalkKind::Simple`] if any position is an isolated node.
pub fn step_cohort(g: &Graph, kind: WalkKind, positions: &mut [NodeId], round_seed: u64) {
    debug_assert!(positions.windows(2).all(|w| w[0] <= w[1]), "cohort must be in node order");
    let d = g.max_degree() as u64;
    if d > 0 && g.is_regular() {
        let flat = g.neighbors_flat();
        let du = d as usize;
        match kind {
            // On a d-regular graph the max-degree walk has no self-loop
            // mass and the simple walk draws from the same d slots, so
            // the two kinds coincide word for word.
            WalkKind::MaxDegree | WalkKind::Simple => map_cohort(positions, round_seed, |v, w| {
                flat[v as usize * du + lemire_u64(w, d) as usize]
            }),
            WalkKind::Lazy => map_cohort(positions, round_seed, |v, w| {
                stay_select(v, flat[v as usize * du + lemire_u64(w << 1, d) as usize], w)
            }),
        }
        return;
    }
    match kind {
        WalkKind::MaxDegree | WalkKind::Lazy if d == 0 => {}
        WalkKind::MaxDegree => {
            map_cohort(positions, round_seed, |v, w| max_degree_dest(g, d, v, w));
        }
        WalkKind::Lazy => map_cohort(positions, round_seed, |v, w| {
            stay_select(v, max_degree_dest(g, d, v, w << 1), w)
        }),
        WalkKind::Simple => map_cohort(positions, round_seed, |v, w| simple_dest(g, v, w)),
    }
}

/// The per-word reference of [`step_cohort`]: the same cohort stepped
/// one walker at a time through `walk_dest(walk_word(..))`, with no
/// dispatch hoisting and no flat-CSR path. Tests pin the kernel to it bit
/// for bit; benches measure the kernel against it.
pub fn step_cohort_per_word(g: &Graph, kind: WalkKind, positions: &mut [NodeId], round_seed: u64) {
    map_cohort(positions, round_seed, |v, w| walk_dest(g, kind, v, w));
}

/// Replace each walker by `dest(v, word)`, numbering the walkers of each
/// contiguous source run `0, 1, 2, …` for their words.
#[inline(always)]
fn map_cohort(positions: &mut [NodeId], round_seed: u64, dest: impl Fn(NodeId, u64) -> NodeId) {
    let mut prev = NodeId::MAX;
    let mut slot = 0u64;
    for p in positions {
        let v = *p;
        slot = if v == prev { slot + 1 } else { 0 };
        prev = v;
        *p = dest(v, walk_word(round_seed, v, slot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transition::TransitionMatrix;
    use tlb_graphs::generators::{complete, cycle, lollipop, star, torus2d};

    /// Pearson chi-square statistic of observed counts against expected
    /// probabilities (support restricted to p > 0).
    fn chi_square(counts: &[u64], probs: &[f64], total: u64) -> (f64, usize) {
        let mut stat = 0.0;
        let mut df = 0usize;
        for (&c, &p) in counts.iter().zip(probs) {
            if p <= 0.0 {
                assert_eq!(c, 0, "observed mass on a zero-probability state");
                continue;
            }
            let e = p * total as f64;
            stat += (c as f64 - e) * (c as f64 - e) / e;
            df += 1;
        }
        (stat, df.saturating_sub(1))
    }

    /// Chi-square critical values at significance 1e-3 for the df this
    /// test suite produces (conservative upper bounds).
    fn critical(df: usize) -> f64 {
        // χ²(df, 0.999) grows ≈ df + 3√(2·df) + 10; generous table.
        match df {
            0 => 0.0,
            1 => 10.83,
            2 => 13.82,
            3 => 16.27,
            4 => 18.47,
            _ => df as f64 + 4.0 * (2.0 * df as f64).sqrt() + 8.0,
        }
    }

    /// Empirical one-step distribution from `start`: `reps` cohorts of
    /// `batch` walkers all on `start` (slots 0..batch), one round seed per
    /// cohort, stepped by the kernel and by the per-word reference.
    fn counts(
        g: &Graph,
        kind: WalkKind,
        start: NodeId,
        reps: usize,
        batch: usize,
    ) -> [Vec<u64>; 2] {
        let mut kernel = vec![0u64; g.num_nodes()];
        let mut reference = vec![0u64; g.num_nodes()];
        for r in 0..reps as u64 {
            let round_seed = mix_pair(0xBA7C4, r);
            let mut positions = vec![start; batch];
            step_cohort(g, kind, &mut positions, round_seed);
            for &v in &positions {
                kernel[v as usize] += 1;
            }
            let mut positions = vec![start; batch];
            step_cohort_per_word(g, kind, &mut positions, round_seed);
            for &v in &positions {
                reference[v as usize] += 1;
            }
        }
        [kernel, reference]
    }

    /// The one statistical pin of the walk law (the justification for
    /// re-pinning protocol goldens after a stream change): for every walk
    /// kind, from a star hub and leaf, a cycle, a torus and a complete
    /// graph (regular and irregular, so both kernel paths are covered),
    /// the kernel and the per-word reference match the exact transition
    /// row of `P`.
    #[test]
    fn batched_and_scalar_match_exact_transition_row() {
        let graphs: Vec<(&str, Graph, NodeId)> = vec![
            ("star_leaf", star(8), 3),
            ("star_hub", star(8), 0),
            ("cycle", cycle(9), 4),
            ("torus", torus2d(4, 4), 5),
            ("complete", complete(6), 2),
        ];
        let total = 120_000u64;
        let batch = 500;
        for (name, g, start) in &graphs {
            for kind in [WalkKind::MaxDegree, WalkKind::Lazy, WalkKind::Simple] {
                let p = TransitionMatrix::build(g, kind);
                let probs = p.matrix().row(*start as usize);
                let [kernel, reference] = counts(g, kind, *start, total as usize / batch, batch);
                for (label, counts) in [("kernel", &kernel), ("per-word", &reference)] {
                    let (stat, df) = chi_square(counts, probs, total);
                    // df 0 = deterministic destination (e.g. a simple walk
                    // from a star leaf): the statistic must be exactly 0.
                    assert!(
                        if df == 0 { stat == 0.0 } else { stat < critical(df) },
                        "{name}/{kind:?}/{label}: chi2 {stat:.2} >= {:.2} (df {df})",
                        critical(df)
                    );
                }
            }
        }
    }

    /// A node-ordered cohort with up to `per` walkers per source.
    fn cohort(n: u32, per: u32) -> Vec<NodeId> {
        (0..n).flat_map(|v| std::iter::repeat_n(v, (v % per + 1) as usize)).collect()
    }

    /// Bit-for-bit pin of the kernel against the per-word law, over many
    /// rounds of a node-ordered cohort: the regular flat-CSR path (torus)
    /// and the irregular path (star, lollipop).
    fn assert_kernel_is_the_word_law(kind: WalkKind) {
        let graphs = [torus2d(5, 5), complete(7), star(25), lollipop(6, 4).unwrap()];
        for g in &graphs {
            let sources = cohort(g.num_nodes() as u32, 4);
            for r in 0..20u64 {
                let round_seed = mix_pair(7, r);
                let mut kernel = sources.clone();
                step_cohort(g, kind, &mut kernel, round_seed);
                let mut reference = sources.clone();
                step_cohort_per_word(g, kind, &mut reference, round_seed);
                assert_eq!(kernel, reference, "{kind:?} on {} nodes, round {r}", g.num_nodes());
            }
        }
    }

    #[test]
    fn max_degree_and_simple_are_bit_identical_to_scalar() {
        assert_kernel_is_the_word_law(WalkKind::MaxDegree);
        assert_kernel_is_the_word_law(WalkKind::Simple);
    }

    #[test]
    fn lazy_batch_is_the_counter_stream_through_the_word_law() {
        assert_kernel_is_the_word_law(WalkKind::Lazy);
    }

    #[test]
    fn lazy_word_law_is_the_fused_coin_and_slot() {
        // Hand-picked words with known top bits and slot values land
        // exactly where the lazy convention (coin first, then max-degree
        // slot) says.
        let g = star(5); // hub 0 degree 4, leaves degree 1
        let lazy = |v: NodeId, word: u64| walk_dest(&g, WalkKind::Lazy, v, word);
        // Top bit set → stay, regardless of the slot bits.
        assert_eq!(lazy(3, 1u64 << 63 | 0x1234), 3);
        // Top bit clear, slot 0 from a leaf → its only neighbour (hub).
        assert_eq!(lazy(3, 0), 0);
        // Top bit clear, slot ≥ deg(leaf) → self-loop mass keeps it put.
        // slot = lemire(word << 1, 4) = 3 needs word<<1 in the top
        // quarter: word = (3 << 61) yields slot 3 ≥ deg 1.
        assert_eq!(lazy(3, 3u64 << 61), 3);
        // Hub with slot 2 → third neighbour (sorted adjacency: 1,2,3,4).
        assert_eq!(lazy(0, 2u64 << 61), 3);
    }

    #[test]
    fn empty_batch_and_edgeless_graph_draw_nothing() {
        // An empty cohort and an edgeless graph move nobody, for every
        // kind that is defined there.
        let g = complete(1); // max_degree 0
        for kind in [WalkKind::MaxDegree, WalkKind::Lazy] {
            step_cohort(&g, kind, &mut [], 1);
            let mut positions = vec![0 as NodeId; 5];
            step_cohort(&g, kind, &mut positions, 1);
            assert_eq!(positions, vec![0; 5]);
            assert_eq!(walk_dest(&g, kind, 0, u64::MAX), 0);
        }
        step_cohort(&g, WalkKind::Simple, &mut [], 1);
    }

    #[test]
    #[should_panic(expected = "isolated node")]
    fn simple_walk_panics_on_isolated_node() {
        // Node 3 has no edges; the simple walk is undefined there.
        let mut b = tlb_graphs::GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        let g = b.build();
        step_cohort(&g, WalkKind::Simple, &mut [3], 1);
    }
}
