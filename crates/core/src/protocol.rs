//! The protocol abstraction: one round engine, one stepping contract.
//!
//! The three threshold-rebalancing variants ([`resource_protocol`],
//! [`user_protocol`], [`mixed_protocol`]) share everything about a round
//! except the departure rule and the movement rule: collect a cohort of
//! departing tasks off the overloaded stacks, move the cohort, stack the
//! arrivals, account (migration counter, potential series, trace), check
//! balance. This module owns that shared machinery and the contract the
//! rest of the system programs against:
//!
//! * [`RoundEngine`] — the shared round state every stepper embeds: the
//!   per-resource stacks, weight vector, threshold, reused round buffers,
//!   and the counters/series/trace. A variant's `step` is `begin_round →
//!   (its departure + movement phases, touching the engine's public
//!   buffers) → finish_round`.
//! * [`ProtocolOutcome`] — the one outcome shape every run reports (the
//!   per-variant outcome names are aliases of it).
//! * [`Protocol`] — the **object-safe** stepping surface
//!   (`step(&Graph, &mut dyn RngCore) -> bool`, `is_done`, `rounds`,
//!   `migrations`, `threshold`, `stacks`, `into_parts`, `into_outcome`),
//!   implemented by all three steppers here and by the baseline adapters
//!   in `tlb-baselines`. Layers that dispatch over protocol variants
//!   (the online simulation, the experiment harness, the
//!   `protocol_matrix` driver) hold an [`AnyStepper`] instead of
//!   re-implementing a per-variant `match`.
//! * [`ProtocolSpec`] — the associated-types half of the contract
//!   (`Config`/`Outcome` plus the constructors), for code generic over a
//!   *statically known* protocol.
//! * [`ProtocolKind`] — the serializable "which variant + its config"
//!   value that constructs an [`AnyStepper`].
//!
//! ## RNG-stream guarantee
//!
//! Trait dispatch adds **no draws and reorders none**: `Protocol::step`
//! delegates to the very same monomorphic round body the inherent
//! `step` runs, with the RNG behind a `&mut dyn RngCore` — the word
//! stream is identical, so an [`AnyStepper`]-driven run is bit-identical
//! to calling the concrete stepper directly (pinned per variant in
//! `tests/integration_protocol_trait.rs`).
//!
//! [`resource_protocol`]: crate::resource_protocol
//! [`user_protocol`]: crate::user_protocol
//! [`mixed_protocol`]: crate::mixed_protocol

use rand::RngCore;
use serde::{Deserialize, Serialize};
use tlb_graphs::{Graph, NodeId};
use tlb_walks::WalkKind;

use crate::mixed_protocol::{MixedConfig, MixedStepper};
use crate::placement::Placement;
use crate::potential::{is_balanced, max_load, total_potential};
use crate::resource_protocol::{ResourceControlledConfig, ResourceControlledStepper};
use crate::stack::ResourceStack;
use crate::task::{TaskId, TaskSet};
use crate::trace::RoundTrace;
use crate::user_protocol::{UserControlledConfig, UserControlledStepper};

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

/// Largest weight among the *stacked* tasks (0 when no task is stacked).
/// The checkpoint surface of variants that never read `w_max` uses this
/// instead of carrying a dead value around.
pub fn live_w_max(stacks: &[ResourceStack], weights: &[f64]) -> f64 {
    stacks
        .iter()
        .flat_map(|s| s.tasks().iter())
        .map(|&t| weights[t as usize])
        .fold(0.0, f64::max)
}

/// The serializable resume surface of a protocol stepper: everything
/// [`ProtocolSpec::resume`] needs to rebuild one, captured by
/// [`Protocol::snapshot_parts`]. Counters (rounds, migrations) are *not*
/// part of it — they are per-pass accounting a dynamic caller reads off
/// before checkpointing, and a resumed stepper starts its own pass.
///
/// Pair it with a [`ProtocolKind`] (or a `ProtocolSpec::Config`) to get
/// a running stepper back: `kind.resume_parts(parts)` is bit-identical
/// to the stepper the parts were taken from, for every variant and the
/// baseline adapters (proptested in `tests/proptests.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolParts {
    /// Per-resource stacks (index = resource id).
    pub stacks: Vec<ResourceStack>,
    /// Weight per task id.
    pub weights: Vec<f64>,
    /// The threshold the pass balances against.
    pub threshold: f64,
    /// The `w_max` the user/mixed migration law divides by (recomputed
    /// over the stacked tasks for variants that never read it).
    pub w_max: f64,
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
/// [`Protocol::obs_stats`].
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

/// The shared round state every protocol stepper embeds (see the module
/// docs). Variant `step` implementations work directly on the public
/// buffers between [`begin_round`](Self::begin_round) and
/// [`finish_round`](Self::finish_round); the counters, potential series,
/// trace, and completion flag are private so the accounting cannot drift
/// between variants.
#[derive(Debug, Clone)]
pub struct RoundEngine {
    /// Per-resource stacks (index = resource id).
    pub stacks: Vec<ResourceStack>,
    /// Weight per task id.
    pub weights: Vec<f64>,
    /// Round buffer: the departing tasks of the current round, in
    /// ejection order. Cleared by [`begin_round`](Self::begin_round).
    pub cohort: Vec<TaskId>,
    /// Round buffer parallel to `cohort`: source positions going in, walk
    /// destinations after [`tlb_walks::step_cohort`]. Cleared by
    /// `begin_round`.
    pub positions: Vec<NodeId>,
    /// Round buffer: arrival task ids, parallel to
    /// [`pending_dests`](Self::pending_dests), for variants that
    /// materialize (and possibly shuffle) the arrival order. Stored as
    /// two flat parallel arrays rather than a `Vec<(TaskId, NodeId)>`:
    /// the arrival loop reads ids and destinations in separate streams,
    /// and the structure-of-arrays form keeps each stream dense (8 B per
    /// entry per array instead of one padded 8 B tuple holding both) —
    /// shuffling applies one permutation to both via
    /// [`rand::seq::shuffle_paired`], which draws the exact words the
    /// tuple shuffle drew.
    pub pending_tasks: Vec<TaskId>,
    /// Round buffer: arrival destinations, parallel to
    /// [`pending_tasks`](Self::pending_tasks).
    pub pending_dests: Vec<NodeId>,
    /// Round buffer: bulk-generated destination words (user-style uniform
    /// re-placement).
    pub dest_words: Vec<u64>,
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
    pub fn new(
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
            pending_tasks: Vec::new(),
            pending_dests: Vec::new(),
            dest_words: Vec::new(),
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

    /// Whether every load is at most the threshold.
    pub fn is_balanced(&self) -> bool {
        self.completed
    }

    /// Whether the run is over: balanced, or the round cap was hit.
    pub fn is_done(&self) -> bool {
        self.completed || self.rounds >= self.max_rounds
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Migrations performed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The threshold this run balances against.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Deterministic observability counters accumulated so far.
    pub fn obs_stats(&self) -> EngineStats {
        self.stats
    }

    /// Account one walk step of the current cohort (call right after
    /// [`tlb_walks::step_cohort`]): `positions.len()` steps, classified by
    /// walk kind and by whether the kernel's regular fast path applies.
    /// Reads only lengths and cached degree bounds — no RNG, no clock.
    pub fn note_walk_batch(&mut self, g: &Graph, kind: WalkKind) {
        let n = self.positions.len() as u64;
        self.stats.walk_steps += n;
        if kind == WalkKind::Lazy {
            self.stats.fused_word_draws += n;
        }
        if g.max_degree() > 0 && g.is_regular() {
            self.stats.regular_fast_path_hits += n;
        }
    }

    /// Account one bulk uniform re-placement (user-style arrival phase):
    /// one destination word per cohort member.
    pub fn note_uniform_batch(&mut self) {
        self.stats.uniform_jump_draws += self.cohort.len() as u64;
    }

    /// Open a round: bump the round counter and clear the cohort buffers.
    /// Callers must have checked [`is_done`](Self::is_done) first.
    pub fn begin_round(&mut self) {
        debug_assert!(!self.is_done(), "begin_round on a finished run");
        self.rounds += 1;
        self.cohort.clear();
        self.positions.clear();
    }

    /// Close a round after `migrated` tasks were re-stacked: update the
    /// migration counter, potential series, trace, and completion flag.
    /// Returns [`is_done`](Self::is_done) after the round.
    pub fn finish_round(&mut self, migrated: u64) -> bool {
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

    /// Finish: consume the engine into the outcome every one-shot entry
    /// point reports.
    pub fn into_outcome(self) -> ProtocolOutcome {
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

    /// Hand the stacks and weight vector back to a dynamic caller (the
    /// inverse of [`new`](Self::new)). Read the counters before calling
    /// this.
    pub fn into_parts(self) -> (Vec<ResourceStack>, Vec<f64>) {
        (self.stacks, self.weights)
    }
}

/// The object-safe stepping surface every protocol engine exposes — the
/// three paper/extension steppers here and the baseline adapters in
/// `tlb-baselines`. One `step` call is one round; the graph is passed
/// into every step so callers may swap it between rounds (the user
/// protocol ignores it — Algorithm 6.1 jumps uniformly).
///
/// Dispatching through `dyn Protocol` consumes exactly the RNG stream
/// the concrete stepper would (see the module docs).
pub trait Protocol {
    /// Execute one round unless the run is already done; returns
    /// [`is_done`](Self::is_done) after the round.
    fn step(&mut self, g: &Graph, rng: &mut dyn RngCore) -> bool;

    /// Step until balanced or the round cap.
    fn run(&mut self, g: &Graph, rng: &mut dyn RngCore) {
        while !self.step(g, rng) {}
    }

    /// Whether the run is over: balanced, or the round cap was hit.
    fn is_done(&self) -> bool;

    /// Whether every load is at most the threshold.
    fn is_balanced(&self) -> bool;

    /// Rounds executed so far.
    fn rounds(&self) -> u64;

    /// Migrations performed so far.
    fn migrations(&self) -> u64;

    /// The threshold this run balances against.
    fn threshold(&self) -> f64;

    /// The per-resource stacks (index = resource id).
    fn stacks(&self) -> &[ResourceStack];

    /// Weight per task id (freed slots of dynamic callers included).
    fn weights(&self) -> &[f64];

    /// The `w_max` of the resume surface: the value the user/mixed
    /// migration law divides by, or the live maximum for variants that
    /// never read it.
    fn w_max(&self) -> f64;

    /// Deterministic observability counters accumulated so far. Defaults
    /// to zeros for steppers that do not embed the round engine (the
    /// baseline adapters).
    fn obs_stats(&self) -> EngineStats {
        EngineStats::default()
    }

    /// Capture the serializable resume surface without consuming the
    /// stepper — the checkpoint half of the
    /// [`ProtocolParts`]/[`ProtocolKind::resume_parts`] round trip.
    fn snapshot_parts(&self) -> ProtocolParts {
        ProtocolParts {
            stacks: self.stacks().to_vec(),
            weights: self.weights().to_vec(),
            threshold: self.threshold(),
            w_max: self.w_max(),
        }
    }

    /// Hand the stacks and weight vector back to a dynamic caller.
    fn into_parts(self: Box<Self>) -> (Vec<ResourceStack>, Vec<f64>);

    /// Consume the engine into its outcome.
    fn into_outcome(self: Box<Self>) -> ProtocolOutcome;
}

/// A boxed protocol engine — the dispatch type the online simulation and
/// the experiment harness drive.
pub type AnyStepper = Box<dyn Protocol + Send>;

/// The associated-types half of the protocol contract: which `Config`
/// drives the variant, which `Outcome` it reports, and the constructors
/// — for code generic over a *statically known* protocol. (The stepping
/// surface lives on [`Protocol`], which stays object-safe.)
pub trait ProtocolSpec: Protocol + Sized {
    /// Per-variant configuration.
    type Config: Clone;
    /// Per-variant outcome (an alias of [`ProtocolOutcome`] for all
    /// in-tree variants).
    type Outcome;

    /// Set up a run: materialize the placement (consuming RNG exactly as
    /// the one-shot entry points always have) and take the initial
    /// snapshots.
    fn new_stepper(
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        cfg: &Self::Config,
        rng: &mut dyn RngCore,
    ) -> Self;

    /// Resume from an existing stack configuration (consumes no RNG).
    /// `w_max` is taken as given so dynamic callers can compute it over
    /// their live population; variants that do not need it ignore it.
    fn resume(
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        w_max: f64,
        cfg: Self::Config,
    ) -> Self;

    /// Resume from a captured [`ProtocolParts`] (consumes no RNG) — the
    /// statically typed restore half of
    /// [`Protocol::snapshot_parts`].
    fn resume_parts(parts: ProtocolParts, cfg: Self::Config) -> Self {
        Self::resume(parts.stacks, parts.weights, parts.threshold, parts.w_max, cfg)
    }

    /// Consume the engine into its (statically typed) outcome.
    fn outcome(self) -> Self::Outcome;
}

/// Which protocol variant to run, with its configuration — the
/// serializable value config files and drivers hold, and the factory for
/// [`AnyStepper`].
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
}

impl ProtocolKind {
    /// Short stable name (report/CSV key).
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::Resource(_) => "resource",
            ProtocolKind::User(_) => "user",
            ProtocolKind::Mixed(_) => "mixed",
        }
    }

    /// Construct a fresh stepper over `(g, tasks, placement)`, consuming
    /// RNG exactly as the variant's one-shot entry point would.
    pub fn new_stepper(
        &self,
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        rng: &mut dyn RngCore,
    ) -> AnyStepper {
        match self {
            ProtocolKind::Resource(cfg) => {
                Box::new(ResourceControlledStepper::new(g, tasks, placement, cfg, rng))
            }
            ProtocolKind::User(cfg) => {
                Box::new(UserControlledStepper::new(g.num_nodes(), tasks, placement, cfg, rng))
            }
            ProtocolKind::Mixed(cfg) => Box::new(MixedStepper::new(g, tasks, placement, cfg, rng)),
        }
    }

    /// Resume a stepper from an existing stack configuration (consumes no
    /// RNG) — the online simulation's entry point. Variants that do not
    /// need `w_max` ignore it.
    pub fn stepper_from_parts(
        &self,
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        w_max: f64,
    ) -> AnyStepper {
        match self {
            ProtocolKind::Resource(cfg) => Box::new(ResourceControlledStepper::from_parts(
                stacks,
                weights,
                threshold,
                cfg.clone(),
            )),
            ProtocolKind::User(cfg) => Box::new(UserControlledStepper::from_parts(
                stacks,
                weights,
                threshold,
                w_max,
                cfg.clone(),
            )),
            ProtocolKind::Mixed(cfg) => {
                Box::new(MixedStepper::from_parts(stacks, weights, threshold, w_max, cfg.clone()))
            }
        }
    }

    /// Resume a stepper from a captured [`ProtocolParts`] (consumes no
    /// RNG) — the dynamic restore half of [`Protocol::snapshot_parts`].
    /// The resumed stepper's future word stream is bit-identical to the
    /// one it was captured from.
    pub fn resume_parts(&self, parts: ProtocolParts) -> AnyStepper {
        self.stepper_from_parts(parts.stacks, parts.weights, parts.threshold, parts.w_max)
    }
}

macro_rules! impl_protocol_via_engine {
    ($stepper:ty) => {
        impl Protocol for $stepper {
            fn step(&mut self, g: &Graph, rng: &mut dyn RngCore) -> bool {
                <$stepper>::step(self, g, rng)
            }

            fn is_done(&self) -> bool {
                <$stepper>::is_done(self)
            }

            fn is_balanced(&self) -> bool {
                <$stepper>::is_balanced(self)
            }

            fn rounds(&self) -> u64 {
                <$stepper>::rounds(self)
            }

            fn migrations(&self) -> u64 {
                <$stepper>::migrations(self)
            }

            fn threshold(&self) -> f64 {
                <$stepper>::threshold(self)
            }

            fn stacks(&self) -> &[ResourceStack] {
                <$stepper>::stacks(self)
            }

            fn weights(&self) -> &[f64] {
                <$stepper>::weights(self)
            }

            fn w_max(&self) -> f64 {
                <$stepper>::w_max(self)
            }

            fn obs_stats(&self) -> EngineStats {
                <$stepper>::obs_stats(self)
            }

            fn into_parts(self: Box<Self>) -> (Vec<ResourceStack>, Vec<f64>) {
                <$stepper>::into_parts(*self)
            }

            fn into_outcome(self: Box<Self>) -> ProtocolOutcome {
                <$stepper>::into_outcome(*self)
            }
        }
    };
}

impl_protocol_via_engine!(ResourceControlledStepper);
impl_protocol_via_engine!(UserControlledStepper);
impl_protocol_via_engine!(MixedStepper);

impl ProtocolSpec for ResourceControlledStepper {
    type Config = ResourceControlledConfig;
    type Outcome = ProtocolOutcome;

    fn new_stepper(
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        cfg: &Self::Config,
        rng: &mut dyn RngCore,
    ) -> Self {
        Self::new(g, tasks, placement, cfg, rng)
    }

    fn resume(
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        _w_max: f64,
        cfg: Self::Config,
    ) -> Self {
        Self::from_parts(stacks, weights, threshold, cfg)
    }

    fn outcome(self) -> ProtocolOutcome {
        self.into_outcome()
    }
}

impl ProtocolSpec for UserControlledStepper {
    type Config = UserControlledConfig;
    type Outcome = ProtocolOutcome;

    fn new_stepper(
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        cfg: &Self::Config,
        rng: &mut dyn RngCore,
    ) -> Self {
        Self::new(g.num_nodes(), tasks, placement, cfg, rng)
    }

    fn resume(
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        w_max: f64,
        cfg: Self::Config,
    ) -> Self {
        Self::from_parts(stacks, weights, threshold, w_max, cfg)
    }

    fn outcome(self) -> ProtocolOutcome {
        self.into_outcome()
    }
}

impl ProtocolSpec for MixedStepper {
    type Config = MixedConfig;
    type Outcome = ProtocolOutcome;

    fn new_stepper(
        g: &Graph,
        tasks: &TaskSet,
        placement: Placement,
        cfg: &Self::Config,
        rng: &mut dyn RngCore,
    ) -> Self {
        Self::new(g, tasks, placement, cfg, rng)
    }

    fn resume(
        stacks: Vec<ResourceStack>,
        weights: Vec<f64>,
        threshold: f64,
        w_max: f64,
        cfg: Self::Config,
    ) -> Self {
        Self::from_parts(stacks, weights, threshold, w_max, cfg)
    }

    fn outcome(self) -> ProtocolOutcome {
        self.into_outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource_protocol::run_resource_controlled;
    use crate::threshold::ThresholdPolicy;
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
        // complete graph with the same node count: the trait threads a
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
        use crate::mixed_protocol::{Departure, MixedConfig};
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

        // The user protocol draws uniform words instead of walk steps,
        // and the baseline default keeps zeros.
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
        // through the JSON tree, resume in a "fresh process", and require
        // the continuation to match the uninterrupted run exactly. The
        // user/mixed variants re-draw from the same RNG state; to compare
        // streams we clone the RNG at the pause point.
        let g = torus2d(5, 5);
        let tasks = TaskSet::new((0..180).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
        for kind in [
            ProtocolKind::Resource(Default::default()),
            ProtocolKind::User(Default::default()),
            ProtocolKind::Mixed(Default::default()),
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
            let parts = stepper.snapshot_parts();
            let json = serde_json::to_string(&parts).unwrap();
            let back: ProtocolParts = serde_json::from_str(&json).unwrap();
            assert_eq!(back, parts, "{}: parts must round-trip bit-exactly", kind.label());

            // A resumed stepper starts its own pass: counters restart at
            // zero, the word stream continues exactly.
            let mut resumed = kind.resume_parts(back);
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
        assert_eq!(stepper.w_max(), 9.5);
        assert_eq!(stepper.snapshot_parts().w_max, 9.5);
    }

    #[test]
    fn engine_accounting_matches_manual_bookkeeping() {
        // Drive a RoundEngine by hand (no variant logic) and check the
        // counters, series, and trace stay in lock-step.
        let mut stacks = vec![ResourceStack::new(); 2];
        let weights = vec![2.0, 2.0, 2.0];
        for id in 0..3 {
            stacks[0].push(id, 2.0);
        }
        let mut eng = RoundEngine::new(stacks, weights, 4.0, 100, true, true);
        assert!(!eng.is_balanced());
        assert_eq!(eng.rounds(), 0);

        eng.begin_round();
        // Move the top task across by hand.
        let moved = eng.stacks[0].remove_active(4.0, &eng.weights.clone());
        assert_eq!(moved.len(), 1);
        for t in moved {
            eng.stacks[1].push(t, eng.weights[t as usize]);
        }
        let done = eng.finish_round(1);
        assert!(done && eng.is_balanced());
        assert_eq!(eng.rounds(), 1);
        assert_eq!(eng.migrations(), 1);
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

    #[test]
    fn protocol_spec_constructors_match_kind_dispatch() {
        let g = complete(10);
        let tasks = TaskSet::uniform(60);
        let cfg = UserControlledConfig { threshold: ThresholdPolicy::Tight, ..Default::default() };
        let mut r1 = rng(3);
        let mut a = <UserControlledStepper as ProtocolSpec>::new_stepper(
            &g,
            &tasks,
            Placement::AllOnOne(0),
            &cfg,
            &mut r1,
        );
        let mut r2 = rng(3);
        let mut b =
            ProtocolKind::User(cfg).new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r2);
        a.run(&g, &mut r1);
        b.run(&g, &mut r2);
        assert_eq!(a.outcome(), b.into_outcome());
    }
}
