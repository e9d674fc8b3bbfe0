//! Golden equivalence suite for the protocol engine: a run built through
//! [`tlb_core::protocol::ProtocolKind::new_stepper`] and stepped by hand
//! must be **bit-identical** to the variant's one-shot entry point — same
//! RNG draws, same order, same outcome — for every protocol variant and
//! walk kind, plus a proptest that `into_parts → stepper_from_parts`
//! round-trips.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::mixed_protocol::{run_mixed, MixedConfig};
use tlb_core::prelude::*;
use tlb_graphs::generators::{complete, torus2d};
use tlb_graphs::Graph;
use tlb_walks::WalkKind;

fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

fn tasks() -> TaskSet {
    TaskSet::new((0..300).map(|i| 1.0 + (i % 5) as f64).collect::<Vec<_>>())
}

/// Drive a kind's stepper with the same seed as a direct run and return
/// its outcome.
fn stepped_run(kind: &ProtocolKind, g: &Graph, tasks: &TaskSet, seed: u64) -> ProtocolOutcome {
    let mut r = rng(seed);
    let mut stepper = kind.new_stepper(g, tasks, Placement::AllOnOne(0), &mut r);
    stepper.run(g, &mut r);
    stepper.into_outcome()
}

#[test]
fn resource_trait_dispatch_is_bit_identical_for_both_walks() {
    let g = torus2d(6, 6);
    let tasks = tasks();
    for (walk, seed) in [(WalkKind::MaxDegree, 101), (WalkKind::Lazy, 102)] {
        let cfg = ResourceControlledConfig { walk, track_potential: true, ..Default::default() };
        let direct =
            run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(seed));
        let stepped = stepped_run(&ProtocolKind::Resource(cfg), &g, &tasks, seed);
        assert_eq!(stepped, direct, "resource/{walk:?} diverged from the one-shot entry point");
        assert!(direct.balanced());
    }
}

#[test]
fn user_trait_dispatch_is_bit_identical() {
    let g = complete(40);
    let tasks = tasks();
    let cfg = UserControlledConfig { track_potential: true, ..Default::default() };
    let direct = run_user_controlled(40, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(103));
    let stepped = stepped_run(&ProtocolKind::User(cfg), &g, &tasks, 103);
    assert_eq!(stepped, direct, "user protocol diverged from the one-shot entry point");
    assert!(direct.balanced());
}

#[test]
fn mixed_trait_dispatch_is_bit_identical_for_both_walks() {
    let g = torus2d(6, 6);
    let tasks = tasks();
    for (walk, seed) in [(WalkKind::MaxDegree, 104), (WalkKind::Lazy, 105)] {
        let cfg = MixedConfig { walk, track_potential: true, ..Default::default() };
        let direct = run_mixed(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(seed));
        let stepped = stepped_run(&ProtocolKind::Mixed(cfg), &g, &tasks, seed);
        assert_eq!(stepped, direct, "mixed/{walk:?} diverged from the one-shot entry point");
        assert!(direct.balanced());
    }
}

#[test]
fn mixed_trace_has_the_shared_engine_shape() {
    // Satellite contract of this PR: the mixed protocol records traces
    // through the shared round engine exactly like its siblings.
    let g = torus2d(5, 5);
    let tasks = tasks();
    let cfg = MixedConfig { record_trace: true, track_potential: true, ..MixedConfig::default() };
    let out = run_mixed(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng(42));
    let trace = out.trace.as_ref().expect("mixed must record a trace now");
    assert_eq!(trace.rounds() as u64, out.rounds);
    assert_eq!(trace.total_migrations(), out.migrations);
    assert_eq!(trace.potential_series(), out.potential_series);
    assert_eq!(trace.records[0].round, 0, "trace starts with the initial snapshot");
    assert_eq!(trace.records.last().unwrap().max_load, out.final_max_load);
}

/// Weight vectors for the proptest: build → partial run → into_parts →
/// resume.
fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1u32..20, 20..120)
        .prop_map(|v| v.into_iter().map(|w| w as f64).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `into_parts → stepper_from_parts` round-trips: resuming a
    /// partially run stepper preserves every task and finishes the run
    /// against the same threshold, for all three variants.
    #[test]
    fn into_parts_from_parts_round_trips_through_the_trait(
        weights in arb_weights(),
        variant in 0usize..3,
        seed in any::<u64>(),
    ) {
        let tasks = TaskSet::new(weights);
        let g = complete(12);
        let kind = match variant {
            0 => ProtocolKind::Resource(ResourceControlledConfig {
                max_rounds: 2, ..Default::default()
            }),
            1 => ProtocolKind::User(UserControlledConfig { max_rounds: 2, ..Default::default() }),
            _ => ProtocolKind::Mixed(MixedConfig { max_rounds: 2, ..Default::default() }),
        };
        let mut r = rng(seed);
        let mut first = kind.new_stepper(&g, &tasks, Placement::AllOnOne(0), &mut r);
        first.run(&g, &mut r);
        let threshold = first.threshold();
        let first_migrations = first.migrations();
        let (stacks, parts_weights) = first.into_parts();
        prop_assert_eq!(parts_weights.len(), tasks.len());
        let carried: f64 = stacks.iter().map(|s| s.load()).sum();
        prop_assert!((carried - tasks.total_weight()).abs() < 1e-6,
            "into_parts lost weight: {} vs {}", carried, tasks.total_weight());

        // Resume with the cap lifted; it must finish.
        let resume_kind = match variant {
            0 => ProtocolKind::Resource(Default::default()),
            1 => ProtocolKind::User(Default::default()),
            _ => ProtocolKind::Mixed(Default::default()),
        };
        let mut second =
            resume_kind.stepper_from_parts(stacks, parts_weights, threshold, tasks.w_max());
        second.run(&g, &mut r);
        prop_assert!(second.is_balanced());
        prop_assert_eq!(second.threshold(), threshold);
        let out = second.into_outcome();
        let total: f64 = out.final_loads.iter().sum();
        prop_assert!((total - tasks.total_weight()).abs() < 1e-6);
        prop_assert!(out.migrations > 0 || first_migrations > 0 || out.rounds == 0);
    }
}
