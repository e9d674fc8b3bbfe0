//! The protocol engine: one [`Stepper`] for every protocol, built from a
//! departure (eject) stage and a movement (move) stage.
//!
//! Algorithms 5.1 and 6.1 differ in only two rules, and the Section-8
//! mixed protocol and the related-work baselines combine the same two
//! rules in other ways. Every round of every protocol is therefore the
//! same pipeline:
//!
//! 1. **begin** — bump the round counter, clear the round buffers;
//! 2. **eject** — every overloaded resource sends tasks into the round
//!    cohort (`cohort[i]` leaves from `positions[i]`, in node order):
//!    either all its cutting and above tasks `I_a ∪ I_c` (Algorithm 5.1),
//!    or each task independently with probability `α·⌈φ_r/w_max⌉/b_r`
//!    (Algorithm 6.1);
//! 3. **move** — one walk step of the configured [`WalkKind`]
//!    (Algorithm 5.1, mixed), a uniform jump over all resources
//!    (Algorithm 6.1), or a related-work placement rule
//!    ([`baseline_protocol`]);
//! 4. **apply** — stack the arrivals; acceptance is implicit in the stack
//!    heights (the baseline rules read live loads, so they stack as they
//!    place);
//! 5. **finish** — account migrations, the potential series and the
//!    trace, and check balance.
//!
//! [`ProtocolKind`] — the serializable "which protocol, with which
//! config" value — picks the two stages and builds the [`Stepper`]; the
//! stepper matches on its stages once per round, never per task. The
//! one-shot `run_*` entry points of [`resource_protocol`],
//! [`user_protocol`] and [`mixed_protocol`] are `new_stepper → run →
//! into_outcome` over it.
//!
//! ## RNG-stream contract
//!
//! A round draws, in this order: the round seed of a walk move (one
//! word, before any departure coin; every walk word of the round derives
//! from it); the Bernoulli departure coins, in node order; then the
//! move's own words — the arrival shuffle of a walk move (after the
//! step), or the arrival shuffle and one bulk destination word per
//! migrant of the uniform move, or the baseline rule's bin choices. The
//! all-active ejection draws nothing.
//!
//! [`resource_protocol`]: crate::resource_protocol
//! [`user_protocol`]: crate::user_protocol
//! [`mixed_protocol`]: crate::mixed_protocol
//! [`baseline_protocol`]: crate::baseline_protocol

use rand::{lemire_u64, Rng};
use serde::{Deserialize, Serialize};
use tlb_graphs::{Graph, NodeId};
use tlb_walks::{step_cohort, WalkKind};

use crate::baseline_protocol::{self, BaselineConfig, BaselineRule};
use crate::mixed_protocol::{Departure, MixedConfig};
use crate::placement::Placement;
use crate::potential::{is_balanced, max_load, total_potential};
use crate::resource_protocol::ResourceControlledConfig;
use crate::stack::ResourceStack;
use crate::task::{TaskId, TaskSet};
use crate::threshold::ThresholdPolicy;
use crate::trace::RoundTrace;
use crate::user_protocol::UserControlledConfig;

/// Result of any protocol run. The per-variant outcome names
/// (`ResourceControlledOutcome`, `UserControlledOutcome`, `MixedOutcome`)
/// are aliases of this struct, so outcomes from different variants can be
/// aggregated side by side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolOutcome {
    /// Rounds executed until balance (or until the cap).
    pub rounds: u64,
    /// Whether balance was reached within the round cap.
    pub completed: bool,
    /// Total task migrations (one per task per round moved).
    pub migrations: u64,
    /// The threshold value used.
    pub threshold: f64,
    /// `Φ` after each round, if tracking was enabled (index 0 is the
    /// initial potential).
    pub potential_series: Vec<f64>,
    /// Maximum load at termination.
    pub final_max_load: f64,
    /// Per-resource loads at termination (index = resource id).
    pub final_loads: Vec<f64>,
    /// Full per-round trace, if `record_trace` was enabled.
    pub trace: Option<RoundTrace>,
}

impl ProtocolOutcome {
    /// Whether the run ended balanced.
    pub fn balanced(&self) -> bool {
        self.completed
    }
}

/// Largest weight among the *stacked* tasks (0 when no task is stacked):
/// the `w_max` a dynamic caller hands to
/// [`ProtocolKind::stepper_from_parts`] when its weight vector carries
/// freed slots.
pub fn live_w_max(stacks: &[ResourceStack], weights: &[f64]) -> f64 {
    stacks
        .iter()
        .flat_map(|s| s.tasks().iter())
        .map(|&t| weights[t as usize])
        .fold(0.0, f64::max)
}

/// Deterministic per-pass observability counters, accumulated by the
/// round engine as a side effect of quantities every round computes
/// anyway (cohort lengths) — a handful of integer adds per *round*, so
/// tracking is unconditional and costs nothing measurable.
///
/// These are pure functions of the stack configuration, threshold, and
/// seed: none of them reads a clock or consumes an RNG word, so they are
/// bit-identical across thread counts and identical for a replayed
/// stream. They are *not* part of [`ProtocolOutcome`] (whose serialized
/// shape is pinned by goldens); the obs layer reads them off through
/// [`Stepper::obs_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Walk-kernel steps taken (one per cohort member per batched step).
    pub walk_steps: u64,
    /// Lazy-walk fused coin+neighbor words drawn (one per walker per
    /// step under [`WalkKind::Lazy`]).
    pub fused_word_draws: u64,
    /// Steps served by the kernel's regular fast path (affine CSR
    /// offsets; taken whenever the graph is regular with degree > 0).
    pub regular_fast_path_hits: u64,
    /// Uniform re-placement words drawn (user-style arrival phase).
    pub uniform_jump_draws: u64,
    /// Largest single-round migration cohort seen this pass.
    pub max_round_cohort: u64,
}

impl EngineStats {
    /// Fold another pass's counters into this one (sums; max for the
    /// cohort high-water mark).
    pub fn merge(&mut self, other: &EngineStats) {
        self.walk_steps += other.walk_steps;
        self.fused_word_draws += other.fused_word_draws;
        self.regular_fast_path_hits += other.regular_fast_path_hits;
        self.uniform_jump_draws += other.uniform_jump_draws;
        self.max_round_cohort = self.max_round_cohort.max(other.max_round_cohort);
    }
}

/// The eject stage: which tasks leave an overloaded resource.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Eject {
    /// All cutting and above tasks, `I_a ∪ I_c` (Algorithm 5.1). Draws no
    /// RNG.
    AllActive,
    /// Each task independently with probability `α·⌈φ_r/w_max⌉/b_r`
    /// (Algorithm 6.1).
    Bernoulli { alpha: f64, w_max: f64 },
}

/// The move stage: where the ejected cohort goes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Move {
    /// One walk step of the given kind.
    Walk(WalkKind),
    /// A uniform jump over all resources; never reads the graph.
    Uniform,
    /// A related-work placement rule over the graph's non-isolated nodes.
    Baseline(BaselineRule),
}

/// The round state a [`Stepper`] owns: the per-resource stacks, the
/// weight vector, the reused round buffers, and the accounting. The
/// stage bodies work on the buffers between
/// [`begin_round`](Self::begin_round) and
/// [`finish_round`](Self::finish_round); the counters, series, trace and
/// completion flag are private so the accounting is the same for every
/// protocol.
#[derive(Debug, Clone)]
pub(crate) struct RoundEngine {
    /// Per-resource stacks (index = resource id).
    pub(crate) stacks: Vec<ResourceStack>,
    /// Weight per task id.
    pub(crate) weights: Vec<f64>,
    /// The departing tasks of the current round, in ejection order.
    pub(crate) cohort: Vec<TaskId>,
    /// Parallel to `cohort`: source resources after the eject stage,
    /// destinations after a walk or uniform move.
    pub(crate) positions: Vec<NodeId>,
    /// Bulk-generated destination words of the uniform move.
    dest_words: Vec<u64>,
    /// Candidate bins of the baseline move (non-isolated nodes).
    pub(crate) candidates: Vec<NodeId>,
    /// Parallel-threshold wave: cohort slots, parallel to `pending_dests`.
    pub(crate) pending_slots: Vec<u32>,
    /// Parallel-threshold wave: the drawn bins.
    pub(crate) pending_dests: Vec<NodeId>,
    threshold: f64,
    max_rounds: u64,
    track_potential: bool,
    rounds: u64,
    migrations: u64,
    stats: EngineStats,
    potential_series: Vec<f64>,
    trace: Option<RoundTrace>,
    completed: bool,
}

impl RoundEngine {
    /// Build the engine over an existing stack configuration (consumes no
    /// RNG) and take the initial potential/trace snapshots.
    ///
    /// # Panics
    /// If the stack vector is empty.
    fn new(
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        max_rounds: u64,
        track_potential: bool,
        record_trace: bool,
    ) -> Self {
        assert!(!stacks.is_empty(), "need at least one resource");
        let completed = is_balanced(&stacks, threshold);
        let mut potential_series = Vec::new();
        if track_potential {
            potential_series.push(total_potential(&stacks, threshold, &weights));
        }
        let trace = record_trace.then(|| RoundTrace::start(&stacks, threshold, &weights));
        RoundEngine {
            stacks,
            weights,
            cohort: Vec::new(),
            positions: Vec::new(),
            dest_words: Vec::new(),
            candidates: Vec::new(),
            pending_slots: Vec::new(),
            pending_dests: Vec::new(),
            threshold,
            max_rounds,
            track_potential,
            rounds: 0,
            migrations: 0,
            stats: EngineStats::default(),
            potential_series,
            trace,
            completed,
        }
    }

    /// Whether the run is over: balanced, or the round cap was hit.
    fn is_done(&self) -> bool {
        self.completed || self.rounds >= self.max_rounds
    }

    /// The threshold this run balances against.
    pub(crate) fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Open a round: bump the round counter and clear the cohort buffers.
    /// Callers must have checked [`is_done`](Self::is_done) first.
    fn begin_round(&mut self) {
        debug_assert!(!self.is_done(), "begin_round on a finished run");
        self.rounds += 1;
        self.cohort.clear();
        self.positions.clear();
    }

    /// Eject stage, Algorithm 5.1: every overloaded resource ejects
    /// `I_a ∪ I_c` into the cohort, in node order.
    fn eject_active(&mut self) {
        let threshold = self.threshold;
        for r in 0..self.stacks.len() as NodeId {
            let stack = &mut self.stacks[r as usize];
            if stack.is_overloaded(threshold) {
                stack.remove_active_into(threshold, &self.weights, &mut self.cohort);
                // One source entry per task ejected by this resource.
                self.positions.resize(self.cohort.len(), r);
            }
        }
    }

    /// Eject stage, Algorithm 6.1: every task on an overloaded resource
    /// flips an independent coin with the resource's migration
    /// probability, in node order.
    fn eject_bernoulli<R: Rng + ?Sized>(&mut self, alpha: f64, w_max: f64, rng: &mut R) {
        let threshold = self.threshold;
        for r in 0..self.stacks.len() as NodeId {
            let stack = &mut self.stacks[r as usize];
            if !stack.is_overloaded(threshold) {
                continue;
            }
            let psi = stack.psi(threshold, &self.weights, w_max);
            debug_assert!(psi >= 1, "overloaded resource must have psi >= 1");
            let p = (alpha * psi as f64 / stack.num_tasks() as f64).min(1.0);
            // Appends into the round-reused buffer — no per-resource
            // allocation in the departure phase.
            stack.drain_bernoulli_into(p, &self.weights, rng, &mut self.cohort);
            self.positions.resize(self.cohort.len(), r);
        }
    }

    /// Move stage, walk: the whole cohort takes one step (words seeded
    /// by `round_seed`); with `shuffle`, the arrival order is then
    /// permuted uniformly.
    fn walk<R: Rng + ?Sized>(
        &mut self,
        g: &Graph,
        kind: WalkKind,
        round_seed: u64,
        shuffle: bool,
        rng: &mut R,
    ) {
        step_cohort(g, kind, &mut self.positions, round_seed);
        // Account the step: reads only lengths and cached degree bounds.
        let n = self.positions.len() as u64;
        self.stats.walk_steps += n;
        if kind == WalkKind::Lazy {
            self.stats.fused_word_draws += n;
        }
        if g.max_degree() > 0 && g.is_regular() {
            self.stats.regular_fast_path_hits += n;
        }
        if shuffle {
            rand::seq::shuffle_paired(&mut self.cohort, &mut self.positions, rng);
        }
    }

    /// Move stage, uniform: with `shuffle`, permute the arrival order;
    /// then give every migrant a uniformly random destination.
    /// Destinations are bulk-generated — one word per migrant, mapped
    /// with the same Lemire multiply `gen_range` uses — so the draws are
    /// those of a per-migrant `gen_range` loop in one register-resident
    /// fill.
    fn jump_uniform<R: Rng + ?Sized>(&mut self, shuffle: bool, rng: &mut R) {
        if shuffle {
            rand::seq::shuffle_paired(&mut self.cohort, &mut self.positions, rng);
        }
        // Resize only (no clear): the fill overwrites every live slot.
        self.dest_words.resize(self.cohort.len(), 0);
        rng.fill_u64(&mut self.dest_words);
        self.stats.uniform_jump_draws += self.cohort.len() as u64;
        let n = self.stacks.len() as u64;
        for (dest, &word) in self.positions.iter_mut().zip(&self.dest_words) {
            *dest = lemire_u64(word, n) as NodeId;
        }
    }

    /// Apply stage: stack `cohort[i]` on `positions[i]`, in order.
    /// Returns the number of tasks stacked.
    pub(crate) fn apply(&mut self) -> u64 {
        for (&t, &dest) in self.cohort.iter().zip(&self.positions) {
            self.stacks[dest as usize].push(t, self.weights[t as usize]);
        }
        self.cohort.len() as u64
    }

    /// Close a round after `migrated` tasks were re-stacked: update the
    /// migration counter, potential series, trace, and completion flag.
    /// Returns [`is_done`](Self::is_done) after the round.
    fn finish_round(&mut self, migrated: u64) -> bool {
        self.migrations += migrated;
        self.stats.max_round_cohort = self.stats.max_round_cohort.max(migrated);
        if self.track_potential {
            self.potential_series.push(total_potential(
                &self.stacks,
                self.threshold,
                &self.weights,
            ));
        }
        if let Some(trace) = &mut self.trace {
            trace.record(self.rounds, &self.stacks, &self.weights, migrated);
        }
        self.completed = is_balanced(&self.stacks, self.threshold);
        self.is_done()
    }

    /// Consume the engine into the run's outcome.
    fn into_outcome(self) -> ProtocolOutcome {
        ProtocolOutcome {
            rounds: self.rounds,
            completed: self.completed,
            migrations: self.migrations,
            threshold: self.threshold,
            potential_series: self.potential_series,
            final_max_load: max_load(&self.stacks),
            final_loads: self.stacks.iter().map(ResourceStack::load).collect(),
            trace: self.trace,
        }
    }
}

/// The resumable engine of every protocol: one [`step`](Self::step) call
/// is one round of the eject → move → apply pipeline (see the module
/// docs). Build one with [`ProtocolKind::new_stepper`] (fresh placement)
/// or [`ProtocolKind::stepper_from_parts`] (existing stacks). The graph
/// is passed into each step, so the caller may swap it between rounds —
/// the online simulation compacts its churned overlay back to CSR and
/// keeps stepping; the uniform move never reads it.
#[derive(Debug, Clone)]
pub struct Stepper {
    eject: Eject,
    mover: Move,
    shuffle_arrivals: bool,
    eng: RoundEngine,
}

impl Stepper {
    /// Whether every load is at most the threshold.
    pub fn is_balanced(&self) -> bool {
        self.eng.completed
    }

    /// Whether the run is over: balanced, or the round cap was hit.
    pub fn is_done(&self) -> bool {
        self.eng.is_done()
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.eng.rounds
    }

    /// Migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.eng.migrations
    }

    /// The threshold this run balances against.
    pub fn threshold(&self) -> f64 {
        self.eng.threshold
    }

    /// The per-resource stacks (index = resource id).
    pub fn stacks(&self) -> &[ResourceStack] {
        &self.eng.stacks
    }

    /// Weight per task id (freed slots of dynamic callers included).
    pub fn weights(&self) -> &[f64] {
        &self.eng.weights
    }

    /// Deterministic observability counters accumulated so far.
    pub fn obs_stats(&self) -> EngineStats {
        self.eng.stats
    }

    /// Execute one round unless the run is already done. Returns
    /// [`is_done`](Self::is_done) after the round.
    ///
    /// # Panics
    /// If a [`WalkKind::Simple`] walk meets a graph with an isolated node
    /// (the simple walk is undefined there).
    pub fn step<R: Rng + ?Sized>(&mut self, g: &Graph, rng: &mut R) -> bool {
        self.round(Some(g), rng)
    }

    /// Step until balanced or the round cap.
    pub fn run<R: Rng + ?Sized>(&mut self, g: &Graph, rng: &mut R) {
        while !self.step(g, rng) {}
    }

    /// Finish: consume the stepper into the outcome the one-shot entry
    /// points report.
    pub fn into_outcome(self) -> ProtocolOutcome {
        self.eng.into_outcome()
    }

    /// Hand the stacks and weight vector back to a dynamic caller (the
    /// inverse of [`ProtocolKind::stepper_from_parts`]). Read the
    /// counters before calling this.
    pub fn into_parts(self) -> (Vec<ResourceStack>, Vec<f64>) {
        (self.eng.stacks, self.eng.weights)
    }

    /// Reject a simple walk on a graph with an isolated node: checked at
    /// construction and before every round (O(1): `min_degree` is
    /// cached), since the caller may swap in a churned graph between
    /// rounds, so the run fails fast instead of deep in the walk kernel.
    fn check_graph(&self, g: &Graph) {
        assert!(
            self.mover != Move::Walk(WalkKind::Simple) || g.min_degree() > 0,
            "WalkKind::Simple is undefined on isolated nodes; this graph has one"
        );
    }

    /// One round. `g` is `None` only for the uniform move, which never
    /// reads a graph (the user protocol's one-shot entry point has none).
    pub(crate) fn round<R: Rng + ?Sized>(&mut self, g: Option<&Graph>, rng: &mut R) -> bool {
        if self.eng.is_done() {
            return true;
        }
        if let Some(g) = g {
            self.check_graph(g);
        }
        let graph = || g.expect("the walk and baseline moves read the graph");
        self.eng.begin_round();
        // One word per round seeds the round's counter-based walk words;
        // the departure coins follow it on the caller's stream.
        let round_seed = match self.mover {
            Move::Walk(_) => rng.next_u64(),
            Move::Uniform | Move::Baseline(_) => 0,
        };
        match self.eject {
            Eject::AllActive => self.eng.eject_active(),
            Eject::Bernoulli { alpha, w_max } => self.eng.eject_bernoulli(alpha, w_max, rng),
        }
        let migrated = match self.mover {
            Move::Walk(kind) => {
                self.eng.walk(graph(), kind, round_seed, self.shuffle_arrivals, rng);
                self.eng.apply()
            }
            Move::Uniform => {
                self.eng.jump_uniform(self.shuffle_arrivals, rng);
                self.eng.apply()
            }
            Move::Baseline(rule) => {
                baseline_protocol::place_cohort(&mut self.eng, graph(), rule, rng)
            }
        };
        self.eng.finish_round(migrated)
    }
}

/// Which protocol to run, with its configuration — the serializable value
/// config files and drivers hold, and the one constructor of [`Stepper`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Resource-controlled (Algorithm 5.1) on arbitrary graphs.
    Resource(ResourceControlledConfig),
    /// User-controlled (Algorithm 6.1); ignores the graph (uniform
    /// jumps over all resources).
    User(UserControlledConfig),
    /// The Section-8 mixed protocol (user-style departures,
    /// resource-style walk movement).
    Mixed(MixedConfig),
    /// A related-work placement rule run as a rebalancing protocol
    /// (Algorithm-5.1 ejection, the rule's re-placement).
    Baseline(BaselineConfig),
}

impl ProtocolKind {
    /// Short stable name (report/CSV key).
    pub fn label(&self) -> String {
        match self {
            Self::Resource(_) => "resource".into(),
            Self::User(_) => "user".into(),
            Self::Mixed(_) => "mixed".into(),
            Self::Baseline(cfg) => cfg.rule.label(),
        }
    }

    /// Check the protocol's parameters: `α` finite and positive under
    /// Bernoulli departures, and the baseline rule's
    /// ([`BaselineRule::validate`]). The stepper constructors panic with
    /// the message; `tlb-sim` returns it for configs and snapshots, so a
    /// bad parameter never reaches a running pass.
    pub fn validate(&self) -> Result<(), String> {
        let alpha = match self {
            Self::User(cfg) => cfg.alpha,
            Self::Mixed(cfg) if cfg.departure == Departure::Bernoulli => cfg.alpha,
            Self::Baseline(cfg) => return cfg.rule.validate(),
            Self::Resource(_) | Self::Mixed(_) => return Ok(()),
        };
        if alpha.is_finite() && alpha > 0.0 {
            Ok(())
        } else {
            Err(format!("alpha must be positive and finite, got {alpha}"))
        }
    }

    /// The settings every config carries: threshold policy, round cap,
    /// potential tracking, trace recording.
    fn common(&self) -> (ThresholdPolicy, u64, bool, bool) {
        match self {
            Self::Resource(c) => (c.threshold, c.max_rounds, c.track_potential, c.record_trace),
            Self::User(c) => (c.threshold, c.max_rounds, c.track_potential, c.record_trace),
            Self::Mixed(c) => (c.threshold, c.max_rounds, c.track_potential, c.record_trace),
            Self::Baseline(c) => (c.threshold, c.max_rounds, c.track_potential, c.record_trace),
        }
    }

    /// Set up a run over `(g, tasks, placement)`: materialize the
    /// placement (consuming RNG exactly as the one-shot entry points
    /// always have), derive the threshold from the config's policy, and
    /// take the initial snapshots.
    ///
    /// # Panics
    /// If the graph is empty, the placement is invalid, a parameter fails
    /// [`validate`](Self::validate), or a [`WalkKind::Simple`] walk meets
    /// a graph with an isolated node.
    pub fn new_stepper<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        rng: &mut R,
    ) -> Stepper {
        let stepper = self.place(g.num_nodes(), tasks, placement, rng);
        stepper.check_graph(g);
        stepper
    }

    /// [`new_stepper`](Self::new_stepper) over `n` resources without a
    /// graph, for the user protocol's one-shot entry point.
    pub(crate) fn place<R: Rng + ?Sized>(
        &self,
        n: usize,
        tasks: &TaskSet,
        placement: Placement,
        rng: &mut R,
    ) -> Stepper {
        assert!(n > 0, "need at least one resource");
        let weights = tasks.weights().to_vec();
        let threshold = self.common().0.value(tasks.total_weight(), n, tasks.w_max());
        let mut stacks: Vec<ResourceStack> = vec![ResourceStack::new(); n];
        for (i, &loc) in placement.materialize(tasks.len(), n, rng).iter().enumerate() {
            stacks[loc as usize].push(i as TaskId, weights[i]);
        }
        self.stepper_from_parts(stacks, weights, threshold, tasks.w_max())
    }

    /// Resume a stepper from an existing stack configuration (consumes no
    /// RNG) — the online simulation's entry point, which mutates the
    /// stacks between rebalancing passes. `threshold` and `w_max` are
    /// taken as given rather than derived from the config: a dynamic
    /// caller computes them over its *live* population, which a weight
    /// vector with freed slots cannot express (see [`live_w_max`]). Only
    /// Bernoulli departures read `w_max`. The counters start at zero.
    ///
    /// # Panics
    /// If the stack vector is empty or a parameter fails
    /// [`validate`](Self::validate).
    pub fn stepper_from_parts(
        &self,
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        w_max: f64,
    ) -> Stepper {
        if let Err(msg) = self.validate() {
            panic!("{msg}");
        }
        let bernoulli = |alpha| Eject::Bernoulli { alpha, w_max };
        let (eject, mover, shuffle_arrivals) = match self {
            Self::Resource(c) => (Eject::AllActive, Move::Walk(c.walk), c.shuffle_arrivals),
            Self::User(c) => (bernoulli(c.alpha), Move::Uniform, c.shuffle_arrivals),
            Self::Mixed(c) => {
                let eject = match c.departure {
                    Departure::AllActive => Eject::AllActive,
                    Departure::Bernoulli => bernoulli(c.alpha),
                };
                (eject, Move::Walk(c.walk), false)
            }
            Self::Baseline(c) => (Eject::AllActive, Move::Baseline(c.rule), false),
        };
        let (_, max_rounds, track_potential, record_trace) = self.common();
        Stepper {
            eject,
            mover,
            shuffle_arrivals,
            eng: RoundEngine::new(
                stacks,
                weights,
                threshold,
                max_rounds,
                track_potential,
                record_trace,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource_protocol::run_resource_controlled;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tlb_graphs::generators::{complete, torus2d};

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ProtocolKind::Resource(Default::default()).label(), "resource");
        assert_eq!(ProtocolKind::User(Default::default()).label(), "user");
        assert_eq!(ProtocolKind::Mixed(Default::default()).label(), "mixed");
        assert_eq!(ProtocolKind::Baseline(Default::default()).label(), "greedy2");
    }

    #[test]
    fn any_stepper_matches_one_shot_resource_run() {
        let g = torus2d(5, 5);
        let tasks = TaskSet::new((0..200).map(|i| 1.0 + (i % 3) as f64).collect::<Vec<_>>());
        let cfg = ResourceControlledConfig { track_potential: true, ..Default::default() };
        let direct = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(7));

        let kind = ProtocolKind::Resource(cfg);
        let mut r = rng(7);
        let mut s = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        s.run(&g, &mut r);
        assert_eq!(s.rounds(), direct.rounds);
        assert_eq!(s.into_outcome(), direct);
    }

    #[test]
    fn any_stepper_user_ignores_topology() {
        // The user protocol on a cycle must behave exactly as on the
        // complete graph with the same node count: the stepper threads a
        // graph through, but Algorithm 6.1 never reads it.
        let tasks = TaskSet::uniform(120);
        let kind = ProtocolKind::User(Default::default());
        let run_on = |g: &Graph| -> ProtocolOutcome {
            let mut r = rng(9);
            let mut s = kind.new_stepper(g, &tasks, Placement::AllOnOne(0), &mut r);
            s.run(g, &mut r);
            s.into_outcome()
        };
        let on_complete = run_on(&complete(12));
        let on_cycle = run_on(&tlb_graphs::generators::cycle(12));
        assert_eq!(on_complete, on_cycle);
        assert!(on_complete.balanced());
    }

    #[test]
    fn walk_steppers_draw_one_round_seed_per_round() {
        // The walk steppers take one word of the caller's stream per
        // round, whatever the cohort size, walk kind or graph shape; every
        // walk word derives from it. (Mixed runs AllActive here, where it
        // draws no departure coins.)
        use rand::RngCore;
        let tasks = TaskSet::new((0..120).map(|i| 1.0 + (i % 3) as f64).collect::<Vec<_>>());
        let edgeless = tlb_graphs::GraphBuilder::new(3).build();
        for g in [torus2d(4, 4), tlb_graphs::generators::star(16), edgeless] {
            for walk in [WalkKind::MaxDegree, WalkKind::Lazy] {
                let kinds = [
                    ProtocolKind::Resource(ResourceControlledConfig {
                        walk,
                        max_rounds: 6,
                        ..Default::default()
                    }),
                    ProtocolKind::Mixed(MixedConfig {
                        walk,
                        departure: Departure::AllActive,
                        max_rounds: 6,
                        ..Default::default()
                    }),
                ];
                for kind in kinds {
                    let mut r = rng(3);
                    let mut s = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
                    let mut reference = r.clone();
                    s.run(&g, &mut r);
                    assert!(s.rounds() > 0);
                    for _ in 0..s.rounds() {
                        reference.next_u64();
                    }
                    assert_eq!(
                        r,
                        reference,
                        "{} {walk:?} on {} nodes",
                        kind.label(),
                        g.num_nodes()
                    );
                }
            }
        }
    }

    #[test]
    fn obs_stats_count_walks_and_cohorts_deterministically() {
        let g = torus2d(5, 5); // 4-regular: every step hits the fast path
        let tasks = TaskSet::new((0..200).map(|i| 1.0 + (i % 3) as f64).collect::<Vec<_>>());
        let run_once = |walk: WalkKind| {
            let cfg = ResourceControlledConfig { walk, ..Default::default() };
            let kind = ProtocolKind::Resource(cfg);
            let mut r = rng(11);
            let mut s = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
            s.run(&g, &mut r);
            (s.obs_stats(), s.migrations())
        };
        let (stats, migrations) = run_once(WalkKind::MaxDegree);
        // The resource protocol moves exactly the walked cohort each
        // round, so steps == migrations; on a regular graph every step is
        // a fast-path hit; max-degree walks draw no fused words.
        assert_eq!(stats.walk_steps, migrations);
        assert_eq!(stats.regular_fast_path_hits, stats.walk_steps);
        assert_eq!(stats.fused_word_draws, 0);
        assert_eq!(stats.uniform_jump_draws, 0);
        assert!(stats.max_round_cohort > 0);
        assert!(stats.max_round_cohort <= migrations);
        // Counters are a pure function of the seed: identical on re-run.
        assert_eq!(run_once(WalkKind::MaxDegree).0, stats);
        // A lazy walk draws exactly one fused word per step.
        let (lazy_stats, _) = run_once(WalkKind::Lazy);
        assert_eq!(lazy_stats.fused_word_draws, lazy_stats.walk_steps);
        assert!(lazy_stats.fused_word_draws > 0);

        // The user protocol draws uniform words instead of walk steps.
        let kind = ProtocolKind::User(Default::default());
        let mut r = rng(11);
        let mut s = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        s.run(&g, &mut r);
        let ustats = s.obs_stats();
        assert_eq!(ustats.uniform_jump_draws, s.migrations());
        assert_eq!(ustats.walk_steps, 0);

        // Merging folds sums and maxes.
        let mut merged = stats;
        merged.merge(&ustats);
        assert_eq!(merged.walk_steps, stats.walk_steps);
        assert_eq!(merged.uniform_jump_draws, ustats.uniform_jump_draws);
        assert_eq!(merged.max_round_cohort, stats.max_round_cohort.max(ustats.max_round_cohort));
    }

    #[test]
    fn stepper_from_parts_round_trips_through_the_trait() {
        let g = torus2d(4, 4);
        let tasks = TaskSet::uniform(96);
        let kind = ProtocolKind::Mixed(MixedConfig { max_rounds: 3, ..Default::default() });
        let mut r = rng(5);
        let mut first = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        first.run(&g, &mut r);
        assert!(!first.is_balanced());
        let threshold = first.threshold();
        let (stacks, weights) = first.into_parts();

        let resume_kind = ProtocolKind::Mixed(MixedConfig::default());
        let mut second = resume_kind.stepper_from_parts(stacks, weights, threshold, 1.0);
        second.run(&g, &mut r);
        assert!(second.is_balanced());
        let out = second.into_outcome();
        let total: f64 = out.final_loads.iter().sum();
        assert!((total - tasks.total_weight()).abs() < 1e-6);
    }

    #[test]
    fn snapshot_parts_resume_is_bit_identical_mid_run() {
        // Pause every variant mid-run, serialize the resume surface
        // (stacks, weights, threshold) through the JSON tree, resume in a
        // "fresh process" with the run's w_max, and require the
        // continuation to match the uninterrupted run exactly. To compare
        // streams we clone the RNG at the pause point.
        let g = torus2d(5, 5);
        let tasks = TaskSet::new((0..180).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
        for kind in [
            ProtocolKind::Resource(Default::default()),
            ProtocolKind::User(Default::default()),
            ProtocolKind::Mixed(Default::default()),
            ProtocolKind::Baseline(Default::default()),
        ] {
            let mut r = rng(13);
            let mut stepper = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
            for _ in 0..2 {
                if stepper.is_done() {
                    break;
                }
                stepper.step(&g, &mut r);
            }
            let pre_migrations = stepper.migrations();
            let parts =
                (stepper.stacks().to_vec(), stepper.weights().to_vec(), stepper.threshold());
            let json = serde_json::to_string(&parts).unwrap();
            let back: (Vec<ResourceStack>, Vec<f64>, f64) = serde_json::from_str(&json).unwrap();
            assert_eq!(back, parts, "{}: parts must round-trip bit-exactly", kind.label());

            // A resumed stepper starts its own pass: counters restart at
            // zero, the word stream continues exactly.
            let (stacks, weights, threshold) = back;
            let mut resumed = kind.stepper_from_parts(stacks, weights, threshold, tasks.w_max());
            let mut r2 = r.clone();
            resumed.run(&g, &mut r2);
            stepper.run(&g, &mut r);
            assert_eq!(
                pre_migrations + resumed.migrations(),
                stepper.migrations(),
                "{}: resumed migrations diverged",
                kind.label()
            );
            let resumed_out = resumed.into_outcome();
            let direct_out = stepper.into_outcome();
            assert_eq!(resumed_out.final_loads, direct_out.final_loads, "{}", kind.label());
            assert_eq!(resumed_out.completed, direct_out.completed, "{}", kind.label());
        }
    }

    #[test]
    fn w_max_is_preserved_for_the_variants_that_read_it() {
        let g = complete(8);
        let mut weights: Vec<f64> = vec![1.0; 40];
        weights[17] = 9.5;
        let tasks = TaskSet::new(weights);
        let kind = ProtocolKind::Mixed(Default::default());
        let mut r = rng(2);
        let stepper = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        assert_eq!(stepper.eject, Eject::Bernoulli { alpha: 1.0, w_max: 9.5 });
        let (stacks, weights) = stepper.into_parts();
        let resumed = kind.stepper_from_parts(stacks, weights, 4.0, 9.5);
        assert_eq!(resumed.eject, Eject::Bernoulli { alpha: 1.0, w_max: 9.5 });
    }

    #[test]
    fn engine_accounting_matches_manual_bookkeeping() {
        // Drive a RoundEngine by hand (no stage logic) and check the
        // counters, series, and trace stay in lock-step.
        let mut stacks = vec![ResourceStack::new(); 2];
        let weights = vec![2.0, 2.0, 2.0];
        for id in 0..3 {
            stacks[0].push(id, 2.0);
        }
        let mut eng = RoundEngine::new(stacks, weights, 4.0, 100, true, true);
        assert!(!eng.completed);
        assert_eq!(eng.rounds, 0);

        eng.begin_round();
        // Move the top task across by hand.
        let moved = eng.stacks[0].remove_active(4.0, &eng.weights.clone());
        assert_eq!(moved.len(), 1);
        for t in moved {
            eng.stacks[1].push(t, eng.weights[t as usize]);
        }
        let done = eng.finish_round(1);
        assert!(done && eng.completed);
        assert_eq!(eng.rounds, 1);
        assert_eq!(eng.migrations, 1);
        let out = eng.into_outcome();
        assert_eq!(out.potential_series.len(), 2);
        assert_eq!(out.potential_series[1], 0.0);
        let trace = out.trace.expect("trace was recorded");
        assert_eq!(trace.rounds(), 1);
        assert_eq!(trace.total_migrations(), 1);
    }

    #[test]
    #[should_panic(expected = "need at least one resource")]
    fn engine_rejects_empty_stacks() {
        RoundEngine::new(Vec::new(), Vec::new(), 1.0, 10, false, false);
    }
}
