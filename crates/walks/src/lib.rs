//! # tlb-walks
//!
//! Random-walk theory substrate for the *Threshold Load Balancing with
//! Weighted Tasks* reproduction.
//!
//! The paper's resource-controlled bounds are stated in terms of two walk
//! quantities on the resource graph `G` (Section 4.1):
//!
//! * the **mixing time** `τ(G) = 4·ln n / µ` (Lemma 2, after Levin–Peres–
//!   Wilmer), where `µ = 1 − max_{i≥2} |λ_i|` is the spectral gap of the
//!   transition matrix `P`, and
//! * the **maximum hitting time** `H(G) = max_{u,v} H_{u,v}`.
//!
//! The walk itself is the *max-degree* walk: `P_{ij} = 1/d` for every edge
//! `(i, j)` and `P_{ii} = (d − d_i)/d`, where `d` is the maximum degree —
//! chosen by the paper because its stationary distribution is uniform on
//! any graph. This crate provides:
//!
//! * [`transition`] — walk kinds (max-degree, lazy, simple) with dense
//!   matrix materialization and an `O(1)`-space step sampler,
//! * [`batch`] — the one walk-step law of both round engines: a
//!   counter-based word per walker ([`walk_word`], a splitmix pair mix of
//!   round seed, node and per-node slot), mapped to a destination by
//!   [`walk_dest`], and the cohort kernel [`step_cohort`] that applies
//!   that law to a whole round's walkers — the hot path of every protocol
//!   round loop (the RNG-driven [`Walker`] serves the Monte-Carlo
//!   estimators),
//! * [`linalg`] — the dense matrix / LU-solver substrate (no external
//!   linear-algebra crate is used anywhere in the workspace),
//! * [`spectral`] — spectral gap via power iteration with deflation,
//! * [`mixing`] — Lemma-2 style analytic mixing time plus empirical
//!   total-variation mixing measurement,
//! * [`hitting`] — exact hitting times through the fundamental matrix
//!   (one `O(n³)` factorization for all pairs) and Monte-Carlo estimators
//!   for graphs too large to factor,
//! * [`cover`] — cover times (Matthews bounds + Monte Carlo), the third
//!   member of the walk-quantity family.
//!
//! ```
//! use tlb_graphs::generators::complete;
//! use tlb_walks::transition::{TransitionMatrix, WalkKind};
//! use tlb_walks::hitting;
//!
//! let g = complete(16);
//! let p = TransitionMatrix::build(&g, WalkKind::MaxDegree);
//! let h = hitting::max_hitting_time_exact(&p);
//! // On K_n the max-degree walk leaves a node every step and lands
//! // uniformly: H(K_n) = n - 1.
//! assert!((h - 15.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod cover;
pub mod hitting;
pub mod linalg;
pub mod mixing;
pub mod spectral;
pub mod transition;
pub mod walker;

pub use batch::{mix_pair, step_cohort, walk_dest, walk_word};
pub use transition::{TransitionMatrix, WalkKind};
pub use walker::Walker;
