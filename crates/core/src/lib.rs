//! # tlb-core
//!
//! The primary contribution of *Threshold Load Balancing with Weighted
//! Tasks* (Berenbrink, Friedetzky, Mallmann-Trenn, Meshkinfamfard, Wastell;
//! JPDC 2018 / IPPS 2015), implemented as a library:
//!
//! * the **resource-controlled protocol** (Algorithm 5.1) on arbitrary
//!   graphs — overloaded resources push their above-threshold and cutting
//!   tasks one max-degree random-walk step per round
//!   ([`resource_protocol`]),
//! * the **user-controlled protocol** (Algorithm 6.1) on complete graphs —
//!   every task on an overloaded resource independently migrates to a
//!   uniformly random resource with probability `α·⌈φ_r/w_max⌉·(1/b_r)`
//!   ([`user_protocol`]),
//! * each protocol both as a one-shot `run_*` entry point and as the
//!   resumable [`protocol::Stepper`] underneath it (`new_stepper → step
//!   → into_outcome`), which the online simulation crate (`tlb-sim`)
//!   drives round by round between streaming arrivals and resource churn,
//! * the **protocol engine** ([`protocol`]): one [`protocol::Stepper`]
//!   built from an eject stage and a move stage, and the
//!   [`protocol::ProtocolKind`] value that picks them (see "Protocol
//!   engine" below), plus the related-work placement rules run as
//!   rebalancing protocols ([`baseline_protocol`]),
//! * the **fragment surface** ([`fragment`]): the stepper state from
//!   `into_parts()` split into contiguous per-shard
//!   [`fragment::StackFragment`]s, the unit of parallelism of the
//!   sharded online engine in `tlb-sim`,
//! * the model substrate both share: weighted tasks ([`task`], [`weights`]),
//!   stack semantics with heights and threshold cutting ([`stack`]),
//!   threshold policies ([`threshold`]), initial placements ([`placement`]),
//!   the potential function `Φ` of Eq. (1) ([`potential`]), the
//!   drift-theorem machinery of Theorem 6 ([`drift`]),
//! * the analysis-side substrates the paper references: proper first-fit
//!   assignments ([`assignment`], Section 5.2) and the footnote-1 diffusion
//!   scheme for estimating the average load ([`diffusion`]).
//!
//! ## Protocol engine
//!
//! Every protocol — the two paper protocols, the Section-8 mixed
//! extension, and the related-work baselines — runs on one concrete
//! [`protocol::Stepper`]. A round is `begin → eject → move → apply →
//! finish`, and only two stages vary:
//!
//! * **eject** — all cutting and above tasks `I_a ∪ I_c` (Algorithm 5.1,
//!   the baselines, mixed with `Departure::AllActive`) or an independent
//!   coin per task with probability `α·⌈φ_r/w_max⌉/b_r` (Algorithm 6.1,
//!   mixed with `Departure::Bernoulli`);
//! * **move** — one walk step (Algorithm 5.1, mixed), a uniform jump over
//!   all resources (Algorithm 6.1), or a baseline placement rule.
//!
//! The shared machinery — the cohort buffers, the
//! migration/potential/trace accounting, completion detection — is the
//! stepper's own. [`protocol::ProtocolKind`] is the one "which protocol"
//! value: it validates the parameters, picks the two stages, and builds
//! the stepper (`new_stepper` over a fresh placement, `stepper_from_parts`
//! over existing stacks). Its constructors and `step` are generic over
//! the caller's `R: Rng + ?Sized`, so every round is a monomorphic call,
//! and every run reports a [`protocol::ProtocolOutcome`].
//!
//! ## Determinism & RNG stream policy
//!
//! Every protocol run is a pure function of its seed. Within one version
//! of this repository, runs are **bit-identical across
//! `RAYON_NUM_THREADS` settings and across reruns** — the round loops
//! draw from a single sequential RNG, and the experiment harness derives
//! per-trial seeds independent of scheduling.
//!
//! There is one walk stream. A walk stepper draws one word per round
//! from its RNG, the round seed; every walk step of the round then takes
//! the counter-based word `walk_word(round_seed, node, slot)` and maps it
//! through the per-word law `walk_dest`, both in `tlb_walks::batch`, via
//! the one cohort kernel `tlb_walks::step_cohort`. The online engine's
//! sharded pass (`tlb_sim::shard`) uses the same kernel with round seeds
//! derived from the epoch, so both engines follow one law. The user
//! protocol draws bulk destination words instead of walk steps.
//!
//! **Not guaranteed:** stream stability across versions. A PR may change
//! the draw count or order (as the move to counter-based walk words did
//! for every walk stepper); it must then re-pin the golden outcome
//! values once, justified by the chi-square distribution-equivalence
//! tests in `tlb_walks::batch`, with the old values recorded in the test
//! comment. See "Determinism & RNG
//! stream policy" in `vendor/README.md` for the full contract.
//!
//! ## Quickstart
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use tlb_core::prelude::*;
//! use tlb_graphs::generators::complete;
//!
//! // 100 unit-weight tasks plus one heavy task, all starting on node 0.
//! let mut weights = vec![1.0; 100];
//! weights.push(8.0);
//! let tasks = TaskSet::new(weights);
//! let g = complete(16);
//! let cfg = UserControlledConfig {
//!     threshold: ThresholdPolicy::AboveAverage { epsilon: 0.2 },
//!     alpha: 1.0,
//!     ..Default::default()
//! };
//! let mut rng = SmallRng::seed_from_u64(1);
//! let out = run_user_controlled(g.num_nodes(), &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
//! assert!(out.balanced());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assignment;
pub mod baseline_protocol;
pub mod diffusion;
pub mod drift;
pub mod fragment;
pub mod mixed_protocol;
pub mod nonuniform;
pub mod placement;
pub mod potential;
pub mod protocol;
pub mod resource_protocol;
pub mod stack;
pub mod task;
pub mod threshold;
pub mod trace;
pub mod user_protocol;
pub mod weights;

/// Convenient re-exports of the types most programs need.
pub mod prelude {
    pub use crate::fragment::StackFragment;
    pub use crate::placement::Placement;
    pub use crate::protocol::{ProtocolKind, ProtocolOutcome, Stepper};
    pub use crate::resource_protocol::{
        run_resource_controlled, run_resource_controlled_with_stats, ResourceControlledConfig,
        ResourceControlledOutcome,
    };
    pub use crate::task::{TaskId, TaskSet};
    pub use crate::threshold::ThresholdPolicy;
    pub use crate::user_protocol::{
        run_user_controlled, run_user_controlled_with_stats, UserControlledConfig,
        UserControlledOutcome,
    };
    pub use crate::weights::WeightSpec;
}
