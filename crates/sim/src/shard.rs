//! The sharded rebalancing engine: Algorithm 5.1 rounds over
//! fragment-partitioned state, stepped in parallel on the rayon pool.
//!
//! ## Shard model
//!
//! The node id space is split into contiguous ranges by a
//! [`Partition`]; each shard owns the [`StackFragment`] of its range.
//! One protocol round runs in three phases:
//!
//! 1. **eject + walk** (parallel, one task per shard): every overloaded
//!    resource in the shard ejects its cutting/above tasks in ascending
//!    node order, and each ejected task takes one walk step, producing
//!    the shard's *outbox* of `(task, destination)` handoffs;
//! 2. **route** (sequential barrier): outboxes are concatenated in shard
//!    order — which by contiguity *is* the global ascending-node-order
//!    cohort of the sequential stepper — and routed into per-destination
//!    shard inboxes, preserving that order;
//! 3. **apply** (parallel): each shard pushes its inbox in routed order
//!    and reports whether its range is balanced; the round is globally
//!    balanced iff every shard is.
//!
//! ## Determinism: counter-based walk words
//!
//! Parallel shards cannot share a sequential RNG without making the
//! stream depend on scheduling. Instead, each shard steps its cohort with
//! the workspace's one walk kernel, [`tlb_walks::step_cohort`]: the walk
//! word of the ejected task with per-source slot `s` on node `v` in
//! round `r` is the counter-based [`walk_word`]`(epoch_seed(stream_seed,
//! r), v, s)`, mapped to a destination by [`walk_dest`] — a pure
//! function of `(stream_seed, r, v, s)`, independent of shard count,
//! thread count, and scheduling order. The sequential `tlb-core`
//! `Stepper` steps its cohorts through the same kernel, so the engine at
//! any shard count reproduces the resource-controlled stepper fed the
//! same round seeds (pinned round by round by this module's cross-engine
//! test); the law's chi-square pin against the exact transition matrix
//! lives in `tlb_walks::batch`, and this module's tests pin the words
//! the engine derives from its `epoch_seed` round seeds the same way.
//!
//! Because every phase is a pure function of the phase inputs and the
//! rayon shim's `collect` preserves input order, a run is bit-identical
//! across `RAYON_NUM_THREADS` *and* across shard counts; the engine at
//! `shards = 1` is the reference sequential semantics.

use std::time::Instant;

use rayon::prelude::*;
use tlb_core::fragment::StackFragment;
use tlb_core::stack::ResourceStack;
use tlb_core::task::TaskId;
use tlb_graphs::{Graph, NodeId, Partition};
use tlb_walks::{step_cohort, WalkKind};

use crate::engine::epoch_seed;

/// Domain-separation tag deriving the rebalance stream from an epoch
/// seed (see [`rebalance_seed`]).
const REBALANCE_STREAM_TAG: u64 = 0x5AAD_ED00_31C7_B21F;

/// Seed of the counter-based rebalance stream for `epoch`: a splitmix
/// chain off the engine's base seed, domain-separated from the epoch's
/// sequential churn/arrival RNG so neither stream can alias the other.
#[inline]
pub fn rebalance_seed(base_seed: u64, epoch: u64) -> u64 {
    epoch_seed(epoch_seed(base_seed, epoch), REBALANCE_STREAM_TAG)
}

/// The per-word walk law, re-exported from its home in `tlb-walks` so
/// layer probes can time it next to the engine that uses it.
pub use tlb_walks::batch::{walk_dest, walk_word};

/// Per-pass observability for the sharded engine, collected only when
/// [`ShardedEngine::enable_obs`] was called (a pass with obs off never
/// reads a clock and skips every tally).
///
/// The split follows the obs contract (`tlb-obs` crate docs):
///
/// * `ejected` / `max_round_cohort` are **deterministic and
///   shard-count-invariant** — pure functions of the pass inputs,
///   accumulated shard-locally and merged in shard order at the round's
///   sequential route barrier;
/// * `cross_shard_handoffs` is deterministic **for a fixed shard
///   layout** (one shard has none by construction) — an execution-layout
///   diagnostic;
/// * the `*_ns` fields are wall clock: total and per-shard time inside
///   each of the three round phases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPassStats {
    /// Tasks ejected over the pass (equals `migrations()`).
    pub ejected: u64,
    /// Largest single-round global cohort.
    pub max_round_cohort: u64,
    /// Handoffs whose destination lay on a different shard than their
    /// source.
    pub cross_shard_handoffs: u64,
    /// Wall time inside the parallel eject+walk phase, summed over
    /// shards.
    pub eject_walk_ns: u64,
    /// Wall time of the sequential route barrier.
    pub route_ns: u64,
    /// Wall time inside the parallel apply+balance phase, summed over
    /// shards.
    pub apply_ns: u64,
    /// Per-shard eject+walk wall time (index = shard).
    pub per_shard_eject_walk_ns: Vec<u64>,
    /// Per-shard apply+balance wall time (index = shard).
    pub per_shard_apply_ns: Vec<u64>,
}

/// A resumable sharded rebalancing pass: the resource-controlled
/// protocol's round loop over fragment-partitioned stacks. Construct
/// from live stepper state with [`ShardedEngine::from_parts`], drive
/// with [`ShardedEngine::run`], and take the stacks back with
/// [`ShardedEngine::into_parts`] — the same resume surface the
/// sequential steppers expose, minus the RNG (the engine draws its
/// counter-based stream from the seed passed to `run`).
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    partition: Partition,
    fragments: Vec<StackFragment>,
    threshold: f64,
    walk: WalkKind,
    max_rounds: u64,
    rounds: u64,
    migrations: u64,
    balanced: bool,
    obs: Option<Box<ShardPassStats>>,
}

impl ShardedEngine {
    /// Split `stacks` (a stepper's `into_parts()` surface) into
    /// `partition`'s fragments and set up a pass enforcing `threshold`
    /// with up to `max_rounds` rounds of `walk` steps.
    ///
    /// # Panics
    /// If the partition does not cover exactly `stacks.len()` nodes.
    pub fn from_parts(
        stacks: Vec<ResourceStack>,
        partition: Partition,
        threshold: f64,
        walk: WalkKind,
        max_rounds: u64,
    ) -> Self {
        let fragments = StackFragment::split(stacks, &partition);
        let balanced = fragments.iter().all(|f| f.is_balanced(threshold));
        ShardedEngine {
            partition,
            fragments,
            threshold,
            walk,
            max_rounds,
            rounds: 0,
            migrations: 0,
            balanced,
            obs: None,
        }
    }

    /// Turn on per-pass observability (idempotent). Off by default: a
    /// pass without it takes no timestamps and keeps no tallies.
    pub fn enable_obs(&mut self) {
        if self.obs.is_none() {
            let shards = self.partition.num_shards();
            self.obs = Some(Box::new(ShardPassStats {
                per_shard_eject_walk_ns: vec![0; shards],
                per_shard_apply_ns: vec![0; shards],
                ..ShardPassStats::default()
            }));
        }
    }

    /// The pass statistics, if [`enable_obs`](Self::enable_obs) was
    /// called.
    pub fn obs(&self) -> Option<&ShardPassStats> {
        self.obs.as_deref()
    }

    /// Run rounds until balanced or the round budget is spent. `weights`
    /// is the global task-weight table; `stream_seed` roots the
    /// counter-based walk stream (see [`rebalance_seed`]).
    pub fn run(&mut self, g: &Graph, weights: &[f64], stream_seed: u64) {
        while !self.balanced && self.rounds < self.max_rounds {
            let round_seed = epoch_seed(stream_seed, self.rounds);
            self.round(g, weights, round_seed);
        }
    }

    /// One three-phase round (see the module docs).
    fn round(&mut self, g: &Graph, weights: &[f64], round_seed: u64) {
        /// Phase-1 result per shard: the fragment handed back, its outbox
        /// of `(task, destination)` walk handoffs, and the eject+walk
        /// wall time in ns (always 0 when obs is off — no clock is read).
        type EjectedShard = (StackFragment, Vec<(TaskId, NodeId)>, u64);
        let threshold = self.threshold;
        let walk = self.walk;
        // Phase 1: eject + walk, one pool task per shard. Each outbox is
        // in ascending (node, slot) order within its shard.
        let timed = self.obs.is_some();
        let fragments = std::mem::take(&mut self.fragments);
        let ejected: Vec<EjectedShard> = fragments
            .into_par_iter()
            .map(|mut frag| {
                let t0 = timed.then(Instant::now);
                let mut cohort: Vec<TaskId> = Vec::new();
                let mut positions: Vec<NodeId> = Vec::new();
                frag.eject_overloaded(threshold, weights, &mut cohort, &mut positions);
                step_cohort(g, walk, &mut positions, round_seed);
                let outbox: Vec<(TaskId, NodeId)> = cohort.into_iter().zip(positions).collect();
                let ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                (frag, outbox, ns)
            })
            .collect();
        // Phase 2: route handoffs. Iterating shards in order keeps each
        // inbox in canonical global cohort order, so the apply phase
        // stacks arrivals exactly as the sequential stepper would.
        let t_route = timed.then(Instant::now);
        let mut inboxes: Vec<Vec<(TaskId, NodeId)>> = vec![Vec::new(); self.partition.num_shards()];
        for (_, outbox, _) in &ejected {
            self.migrations += outbox.len() as u64;
            for &(t, dest) in outbox {
                inboxes[self.partition.shard_of(dest)].push((t, dest));
            }
        }
        // Obs tallies walk the same shard order as the route loop, so the
        // deterministic counters merge identically for every shard count.
        let partition = &self.partition;
        if let Some(obs) = self.obs.as_deref_mut() {
            let mut round_cohort = 0u64;
            for (shard, (_, outbox, ns)) in ejected.iter().enumerate() {
                round_cohort += outbox.len() as u64;
                obs.cross_shard_handoffs +=
                    outbox.iter().filter(|&&(_, dest)| partition.shard_of(dest) != shard).count()
                        as u64;
                obs.per_shard_eject_walk_ns[shard] += ns;
                obs.eject_walk_ns += ns;
            }
            obs.ejected += round_cohort;
            obs.max_round_cohort = obs.max_round_cohort.max(round_cohort);
            obs.route_ns += t_route.map_or(0, |t| t.elapsed().as_nanos() as u64);
        }
        // Phase 3: apply inboxes and check balance per shard.
        let work: Vec<(StackFragment, Vec<(TaskId, NodeId)>)> =
            ejected.into_iter().map(|(f, _, _)| f).zip(inboxes).collect();
        let applied: Vec<(StackFragment, bool, u64)> = work
            .into_par_iter()
            .map(|(mut frag, inbox)| {
                let t0 = timed.then(Instant::now);
                for (t, dest) in inbox {
                    frag.push(dest, t, weights[t as usize]);
                }
                let balanced = frag.is_balanced(threshold);
                let ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                (frag, balanced, ns)
            })
            .collect();
        if let Some(obs) = self.obs.as_deref_mut() {
            for (shard, &(_, _, ns)) in applied.iter().enumerate() {
                obs.per_shard_apply_ns[shard] += ns;
                obs.apply_ns += ns;
            }
        }
        self.balanced = applied.iter().all(|&(_, ok, _)| ok);
        self.fragments = applied.into_iter().map(|(f, _, _)| f).collect();
        self.rounds += 1;
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total walk steps taken (every ejected task counts, stays included
    /// — the sequential steppers' convention).
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Whether no resource exceeded the threshold after the last round.
    pub fn is_balanced(&self) -> bool {
        self.balanced
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.partition.num_shards()
    }

    /// Reassemble and return the flat per-resource stacks.
    pub fn into_parts(self) -> Vec<ResourceStack> {
        StackFragment::join(self.fragments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use tlb_core::protocol::ProtocolKind;
    use tlb_core::resource_protocol::ResourceControlledConfig;
    use tlb_graphs::generators::{complete, lollipop, star, torus2d};
    use tlb_walks::TransitionMatrix;

    #[test]
    fn walk_dest_matches_the_batched_kernel_per_word() {
        // One engine round, replayed by hand through the per-word law:
        // overloaded nodes eject in ascending order, the task with slot
        // `s` on node `v` moves to walk_dest(walk_word(round 0 seed, v,
        // s)), and arrivals stack in that order. Irregular (star) and
        // regular (torus) graphs cover both kernel paths.
        for g in [star(25), torus2d(5, 5)] {
            let n = g.num_nodes();
            let (stacks, weights) = loaded_stacks(n, &[(0, 30), (3, 12), (7, 9)]);
            for kind in [WalkKind::MaxDegree, WalkKind::Lazy] {
                let round_seed = epoch_seed(0xD15EA5E, 0);
                let mut want = stacks.clone();
                let mut moves = Vec::new();
                for v in 0..n as NodeId {
                    let mut ejected = Vec::new();
                    want[v as usize].remove_active_into(4.0, &weights, &mut ejected);
                    for (slot, t) in ejected.into_iter().enumerate() {
                        moves.push((
                            t,
                            walk_dest(&g, kind, v, walk_word(round_seed, v, slot as u64)),
                        ));
                    }
                }
                for &(t, dest) in &moves {
                    want[dest as usize].push(t, weights[t as usize]);
                }
                for k in [1usize, 3] {
                    let p = Partition::contiguous(n, k);
                    let mut eng = ShardedEngine::from_parts(stacks.clone(), p, 4.0, kind, 1);
                    eng.run(&g, &weights, 0xD15EA5E);
                    assert_eq!(eng.migrations(), moves.len() as u64);
                    assert_eq!(eng.into_parts(), want, "{kind:?} at {k} shards");
                }
            }
        }
    }

    /// Replays the round seeds `epoch_seed(stream_seed, r)` for r = 0, 1,
    /// … — the seeds `ShardedEngine::run(.., stream_seed)` derives.
    struct RoundSeeds(u64, u64);
    impl RngCore for RoundSeeds {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            epoch_seed(self.0, self.1 - 1)
        }
    }

    /// One law for both engines: the resource-controlled `Stepper`, drawing its
    /// round seeds from `RoundSeeds`, and the sharded engine produce the
    /// same stacks, migrations and balance flag after every round, at
    /// every shard count, on a regular and an irregular graph.
    #[test]
    fn sequential_stepper_and_sharded_engine_agree_round_by_round() {
        let graphs = [
            (torus2d(6, 6), vec![(0, 40), (17, 25), (35, 10)]),
            (lollipop(12, 4).unwrap(), vec![(0, 30), (11, 12)]),
        ];
        for (g, load) in &graphs {
            let n = g.num_nodes();
            let (stacks, weights) = loaded_stacks(n, load);
            let threshold = 1.3 * weights.iter().sum::<f64>() / n as f64 + 3.0;
            for walk in [WalkKind::MaxDegree, WalkKind::Lazy] {
                let cfg = ResourceControlledConfig { walk, ..Default::default() };
                let mut stepper = ProtocolKind::Resource(cfg).stepper_from_parts(
                    stacks.clone(),
                    weights.clone(),
                    threshold,
                    0.0,
                );
                let mut seeds = RoundSeeds(0x5EED, 0);
                let mut rounds = 0u64;
                while !stepper.is_done() && rounds < 300 {
                    stepper.step(g, &mut seeds);
                    rounds += 1;
                    for k in [1usize, 2, 5] {
                        let p = Partition::contiguous(n, k);
                        let mut eng =
                            ShardedEngine::from_parts(stacks.clone(), p, threshold, walk, rounds);
                        eng.run(g, &weights, 0x5EED);
                        let at = format!("{walk:?} n={n} shards={k} round {rounds}");
                        assert_eq!(eng.rounds(), rounds, "{at}");
                        assert_eq!(eng.migrations(), stepper.migrations(), "{at}");
                        assert_eq!(eng.is_balanced(), stepper.is_balanced(), "{at}");
                        assert_eq!(eng.into_parts(), stepper.stacks(), "{at}");
                    }
                }
                assert!(stepper.is_balanced(), "{walk:?} n={n} did not balance");
            }
        }
    }

    /// Chi-square pin of the words this engine derives: counter-based
    /// words under `epoch_seed` round seeds drive `walk_dest` to the
    /// exact one-step transition law, just as the sequential stream does.
    #[test]
    fn counter_words_reproduce_the_transition_row() {
        let graphs: Vec<(&str, Graph, NodeId)> = vec![
            ("star_hub", star(8), 0),
            ("torus", torus2d(4, 4), 5),
            ("complete", complete(6), 2),
        ];
        let total = 120_000u64;
        for (name, g, start) in &graphs {
            for kind in [WalkKind::MaxDegree, WalkKind::Lazy] {
                let probs = TransitionMatrix::build(g, kind);
                let probs = probs.matrix().row(*start as usize);
                let mut counts = vec![0u64; g.num_nodes()];
                for i in 0..total {
                    // Vary both the round seed and the slot, as the
                    // engine does across rounds and stack positions.
                    let word = walk_word(epoch_seed(7, i / 97), *start, i % 97);
                    counts[walk_dest(g, kind, *start, word) as usize] += 1;
                }
                let (mut stat, mut df) = (0.0f64, 0usize);
                for (&c, &p) in counts.iter().zip(probs) {
                    if p <= 0.0 {
                        assert_eq!(c, 0, "mass on a zero-probability destination");
                        continue;
                    }
                    let e = p * total as f64;
                    stat += (c as f64 - e) * (c as f64 - e) / e;
                    df += 1;
                }
                let df = df.saturating_sub(1);
                // χ²(df, 0.999) upper bound, as in tlb_walks::batch.
                let crit = df as f64 + 4.0 * (2.0 * df as f64).sqrt() + 10.0;
                assert!(
                    if df == 0 { stat == 0.0 } else { stat < crit },
                    "{name}/{kind:?}: chi2 {stat:.2} >= {crit:.2} (df {df})"
                );
            }
        }
    }

    fn loaded_stacks(n: usize, tasks_on: &[(NodeId, usize)]) -> (Vec<ResourceStack>, Vec<f64>) {
        let mut stacks = vec![ResourceStack::new(); n];
        let mut weights = Vec::new();
        for &(v, k) in tasks_on {
            for i in 0..k {
                let id = weights.len() as TaskId;
                weights.push(1.0 + (i % 3) as f64);
                stacks[v as usize].push(id, weights[id as usize]);
            }
        }
        (stacks, weights)
    }

    #[test]
    fn output_is_invariant_to_shard_count() {
        let g = torus2d(6, 6);
        let (stacks, weights) = loaded_stacks(36, &[(0, 40), (17, 25), (35, 10)]);
        let run_at = |k: usize| {
            let p = Partition::contiguous(36, k);
            let mut eng =
                ShardedEngine::from_parts(stacks.clone(), p, 5.0, WalkKind::MaxDegree, 64);
            eng.run(&g, &weights, 0xFEED);
            (eng.rounds(), eng.migrations(), eng.is_balanced(), eng.into_parts())
        };
        let reference = run_at(1);
        for k in [2usize, 3, 5, 8, 36] {
            assert_eq!(run_at(k), reference, "shard count {k} diverged");
        }
        assert!(reference.2, "reference run should balance on the torus");
    }

    #[test]
    fn obs_counters_are_shard_count_invariant_and_off_by_default() {
        let g = torus2d(6, 6);
        let (stacks, weights) = loaded_stacks(36, &[(0, 40), (17, 25), (35, 10)]);
        let run_at = |k: usize, obs: bool| {
            let p = Partition::contiguous(36, k);
            let mut eng =
                ShardedEngine::from_parts(stacks.clone(), p, 5.0, WalkKind::MaxDegree, 64);
            if obs {
                eng.enable_obs();
            }
            eng.run(&g, &weights, 0xFEED);
            let stats = eng.obs().cloned();
            (eng.rounds(), eng.migrations(), eng.into_parts(), stats)
        };
        // Obs off: no stats, and the pass output matches the obs-on runs.
        let (rounds, migrations, parts, none) = run_at(1, false);
        assert_eq!(none, None, "obs must be opt-in");
        let reference = run_at(1, true);
        assert_eq!((reference.0, reference.1, &reference.2), (rounds, migrations, &parts));
        let ref_stats = reference.3.expect("obs was enabled");
        assert_eq!(ref_stats.ejected, migrations);
        assert!(ref_stats.max_round_cohort > 0);
        assert!(ref_stats.max_round_cohort <= migrations);
        assert_eq!(ref_stats.cross_shard_handoffs, 0, "one shard has no handoffs");
        for k in [2usize, 3, 8] {
            let run = run_at(k, true);
            assert_eq!((run.0, run.1, &run.2), (rounds, migrations, &parts));
            let stats = run.3.expect("obs was enabled");
            assert_eq!(stats.ejected, ref_stats.ejected, "shard count {k}");
            assert_eq!(stats.max_round_cohort, ref_stats.max_round_cohort, "shard count {k}");
            assert_eq!(stats.per_shard_eject_walk_ns.len(), k);
            assert_eq!(stats.per_shard_apply_ns.len(), k);
            assert!(stats.cross_shard_handoffs <= stats.ejected);
        }
    }

    #[test]
    fn from_parts_into_parts_round_trips_without_rounds() {
        let (stacks, _) = loaded_stacks(10, &[(2, 5), (7, 3)]);
        for k in [1usize, 2, 4, 10] {
            let p = Partition::contiguous(10, k);
            let eng =
                ShardedEngine::from_parts(stacks.clone(), p, f64::INFINITY, WalkKind::Lazy, 8);
            assert!(eng.is_balanced());
            assert_eq!(eng.into_parts(), stacks);
        }
    }

    #[test]
    fn round_budget_is_respected() {
        let g = complete(4);
        // All load on one node, threshold so tight it cannot balance.
        let (stacks, weights) = loaded_stacks(4, &[(0, 50)]);
        let p = Partition::contiguous(4, 2);
        let mut eng = ShardedEngine::from_parts(stacks, p, 0.5, WalkKind::MaxDegree, 6);
        eng.run(&g, &weights, 9);
        assert_eq!(eng.rounds(), 6);
        assert!(!eng.is_balanced());
        assert!(eng.migrations() > 0);
    }
}
