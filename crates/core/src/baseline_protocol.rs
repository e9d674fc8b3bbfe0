//! The related-work allocators as iterative threshold-rebalancing
//! protocols: the placement *rule* of each one-shot allocator in
//! `tlb-baselines` (`Greedy[d]`, the `(1+β)`-process, sequential and
//! parallel threshold-retry) adapted into the move stage of the one
//! [`Stepper`](crate::protocol::Stepper), so the baselines run inside the
//! same machinery as the paper protocols (the experiment harness's
//! protocol sweeps, the online simulation's rebalancing pass, the
//! `protocol_matrix` driver). Build one with
//! [`ProtocolKind::Baseline`](crate::protocol::ProtocolKind::Baseline).
//!
//! * **eject** — Algorithm 5.1's rule: every overloaded resource ejects
//!   its cutting-and-above tasks (`I_a ∪ I_c`), consuming no RNG;
//! * **move** — the baseline's placement rule re-places each ejected task
//!   among the *candidate bins*: the non-isolated nodes of the graph
//!   passed to `step`. Topology is otherwise ignored (these are
//!   global-view allocators); the candidate filter makes the rules safe
//!   on the online engine's churned snapshots, which isolate deactivated
//!   resources. If no node has an edge, the cohort returns to its sources
//!   unmoved (there is no eligible destination).
//!
//! Under the threshold-respecting rules ([`BaselineRule::
//! SequentialThreshold`], [`BaselineRule::ParallelThreshold`]) a task that
//! finds no accepting bin within its per-round budget also returns to its
//! source and retries next round — the `r`-round retry structure of Adler
//! et al. \[4\], with the round cap playing the "give up" bound.

use rand::Rng;
use serde::{Deserialize, Serialize};
use tlb_graphs::Graph;

use crate::protocol::RoundEngine;
use crate::threshold::ThresholdPolicy;

/// Which baseline placement rule moves the ejected cohort.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BaselineRule {
    /// `Greedy[d]`: each task inspects `d` uniform candidate bins and
    /// joins the least loaded (ties: first sampled). Ignores the
    /// threshold when placing.
    Greedy {
        /// Choices per task (`d ≥ 1`; 1 = one-choice, 2 = two-choice).
        d: usize,
    },
    /// The `(1+β)`-process: one uniform choice with probability `β`, two
    /// choices (least loaded) otherwise. Ignores the threshold when
    /// placing.
    OnePlusBeta {
        /// Mixing parameter `β ∈ (0, 1]`.
        beta: f64,
    },
    /// Sequential threshold-retry: each task samples up to `retries`
    /// uniform bins and joins the first whose load stays at or below the
    /// threshold; on failure it returns to its source and retries next
    /// round.
    SequentialThreshold {
        /// Uniform samples per task per round (`≥ 1`).
        retries: usize,
    },
    /// Parallel threshold allocation: a synchronous wave — every task
    /// samples one uniform bin, then arrivals are processed in uniformly
    /// shuffled order (the cited model's collision tie-breaking),
    /// accepted while the bin stays at or below the threshold; rejected
    /// tasks return to their sources and retry next round.
    ParallelThreshold,
}

impl BaselineRule {
    /// Short stable name (report/CSV key).
    pub fn label(&self) -> String {
        match *self {
            BaselineRule::Greedy { d } => format!("greedy{d}"),
            BaselineRule::OnePlusBeta { .. } => "one_plus_beta".into(),
            BaselineRule::SequentialThreshold { .. } => "seq_threshold".into(),
            BaselineRule::ParallelThreshold => "par_threshold".into(),
        }
    }

    /// Check the rule's parameters: `d ≥ 1`, `β ∈ (0, 1]`, `retries ≥ 1`.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            BaselineRule::Greedy { d: 0 } => {
                Err("Greedy needs at least one choice (d >= 1)".into())
            }
            BaselineRule::OnePlusBeta { beta } if !(beta > 0.0 && beta <= 1.0) => {
                Err(format!("beta must be in (0, 1], got {beta}"))
            }
            BaselineRule::SequentialThreshold { retries: 0 } => {
                Err("SequentialThreshold needs at least one retry per task (retries >= 1)".into())
            }
            _ => Ok(()),
        }
    }
}

/// Configuration of a baseline rebalancing run (the baseline analog of
/// the core protocols' config structs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Threshold policy defining both balance (termination) and, for the
    /// threshold-respecting rules, acceptance.
    pub threshold: ThresholdPolicy,
    /// Placement rule.
    pub rule: BaselineRule,
    /// Safety cap on rounds; a run that hits it reports `completed = false`.
    pub max_rounds: u64,
    /// Record `Φ(t)` after every round.
    pub track_potential: bool,
    /// Record a full `RoundTrace` in the outcome.
    pub record_trace: bool,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
            rule: BaselineRule::Greedy { d: 2 },
            max_rounds: 10_000_000,
            track_potential: false,
            record_trace: false,
        }
    }
}

/// The baseline move stage: re-place the round's cohort (`cohort[i]`
/// ejected from `positions[i]`) by `rule` among the non-isolated nodes of
/// `g`, stacking as it goes, since the rules read live bin loads. Returns
/// the number of migrations.
///
/// The parallel rule is a synchronous wave (all bins drawn before any
/// acceptance, arrival order shuffled — the cited model's collision
/// tie-breaking, matching `parallel_threshold::allocate`); the sequential
/// rules place the cohort in ejection order.
pub(crate) fn place_cohort<R: Rng + ?Sized>(
    eng: &mut RoundEngine,
    g: &Graph,
    rule: BaselineRule,
    rng: &mut R,
) -> u64 {
    // Candidate bins: the non-isolated nodes of this round's graph
    // (churned snapshots isolate deactivated resources).
    eng.candidates.clear();
    eng.candidates.extend(g.nodes().filter(|&v| g.degree(v) > 0));
    if eng.candidates.is_empty() {
        // No eligible destination (every node isolated): the cohort
        // returns to its sources unmoved.
        eng.apply();
        return 0;
    }
    let threshold = eng.threshold();
    let cands = &eng.candidates;
    let mut migrated = 0u64;
    match rule {
        BaselineRule::Greedy { d } => {
            for &t in &eng.cohort {
                let mut best = cands[rng.gen_range(0..cands.len())];
                for _ in 1..d {
                    let c = cands[rng.gen_range(0..cands.len())];
                    if eng.stacks[c as usize].load() < eng.stacks[best as usize].load() {
                        best = c;
                    }
                }
                eng.stacks[best as usize].push(t, eng.weights[t as usize]);
                migrated += 1;
            }
        }
        BaselineRule::OnePlusBeta { beta } => {
            for &t in &eng.cohort {
                let dest = if rng.gen_bool(beta) {
                    cands[rng.gen_range(0..cands.len())]
                } else {
                    let a = cands[rng.gen_range(0..cands.len())];
                    let b = cands[rng.gen_range(0..cands.len())];
                    if eng.stacks[a as usize].load() <= eng.stacks[b as usize].load() {
                        a
                    } else {
                        b
                    }
                };
                eng.stacks[dest as usize].push(t, eng.weights[t as usize]);
                migrated += 1;
            }
        }
        BaselineRule::SequentialThreshold { retries } => {
            // Sample up to `retries` bins and join the first that stays
            // within the threshold; return to the source on failure.
            'task: for (&t, &src) in eng.cohort.iter().zip(&eng.positions) {
                let w = eng.weights[t as usize];
                for _ in 0..retries {
                    let c = cands[rng.gen_range(0..cands.len())];
                    if eng.stacks[c as usize].load() + w <= threshold {
                        eng.stacks[c as usize].push(t, w);
                        migrated += 1;
                        continue 'task;
                    }
                }
                eng.stacks[src as usize].push(t, w);
            }
        }
        BaselineRule::ParallelThreshold => {
            // The pending arrays carry (cohort slot, drawn bin) pairs; the
            // slot index (not the task id) is stored so a rejected task
            // can find its source in `positions` after the shuffle.
            // `shuffle_paired` applies one permutation to both arrays.
            eng.pending_slots.clear();
            eng.pending_dests.clear();
            for slot in 0..eng.cohort.len() {
                eng.pending_slots.push(slot as u32);
                eng.pending_dests.push(cands[rng.gen_range(0..cands.len())]);
            }
            rand::seq::shuffle_paired(&mut eng.pending_slots, &mut eng.pending_dests, rng);
            for (&slot, &dest) in eng.pending_slots.iter().zip(&eng.pending_dests) {
                let t = eng.cohort[slot as usize];
                let w = eng.weights[t as usize];
                if eng.stacks[dest as usize].load() + w <= threshold {
                    eng.stacks[dest as usize].push(t, w);
                    migrated += 1;
                } else {
                    eng.stacks[eng.positions[slot as usize] as usize].push(t, w);
                }
            }
        }
    }
    migrated
}
