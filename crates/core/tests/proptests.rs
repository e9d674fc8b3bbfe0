//! Property-based tests for the protocol crate: conservation, feasibility
//! and termination invariants that must hold for *every* workload.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tlb_core::assignment;
use tlb_core::placement::Placement;
use tlb_core::resource_protocol::{run_resource_controlled, ResourceControlledConfig};
use tlb_core::task::TaskSet;
use tlb_core::threshold::ThresholdPolicy;
use tlb_core::user_protocol::{run_user_controlled, UserControlledConfig};
use tlb_core::weights::WeightSpec;
use tlb_graphs::generators;

fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1u32..40, 1..120)
        .prop_map(|v| v.into_iter().map(|w| w as f64).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// User-controlled runs conserve total weight and finish under the
    /// threshold for every workload and seed.
    #[test]
    fn user_protocol_conserves_weight_and_balances(
        weights in arb_weights(),
        n in 2usize..20,
        seed in any::<u64>(),
        eps in prop_oneof![Just(0.0f64), Just(0.2), Just(1.0)],
    ) {
        let tasks = TaskSet::new(weights);
        let cfg = UserControlledConfig {
            threshold: if eps == 0.0 {
                ThresholdPolicy::Tight
            } else {
                ThresholdPolicy::AboveAverage { epsilon: eps }
            },
            max_rounds: 2_000_000,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = run_user_controlled(n, &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
        prop_assert!(out.balanced(), "did not balance in {} rounds", out.rounds);
        let total: f64 = out.final_loads.iter().sum();
        prop_assert!((total - tasks.total_weight()).abs() < 1e-6,
            "weight not conserved: {total} vs {}", tasks.total_weight());
        prop_assert!(out.final_max_load <= out.threshold + 1e-9);
        prop_assert_eq!(out.final_loads.len(), n);
    }

    /// Resource-controlled runs conserve weight and balance on connected
    /// random regular graphs.
    #[test]
    fn resource_protocol_conserves_weight_and_balances(
        weights in arb_weights(),
        n in 4usize..24,
        seed in any::<u64>(),
    ) {
        let d = 3usize;
        prop_assume!((n * d).is_multiple_of(2));
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng).unwrap();
        let tasks = TaskSet::new(weights);
        let cfg = ResourceControlledConfig { max_rounds: 2_000_000, ..Default::default() };
        let out = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
        prop_assert!(out.balanced(), "did not balance in {} rounds", out.rounds);
        let total: f64 = out.final_loads.iter().sum();
        prop_assert!((total - tasks.total_weight()).abs() < 1e-6);
        prop_assert!(out.final_max_load <= out.threshold + 1e-9);
    }

    /// Observation 4: the resource-controlled potential never increases,
    /// on any graph, for any workload.
    #[test]
    fn resource_potential_monotone(
        weights in arb_weights(),
        rows in 2usize..5,
        cols in 2usize..5,
        seed in any::<u64>(),
    ) {
        let g = generators::torus2d(rows, cols);
        let tasks = TaskSet::new(weights);
        let cfg = ResourceControlledConfig {
            track_potential: true,
            max_rounds: 2_000_000,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
        prop_assert!(out.balanced());
        for w in out.potential_series.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9, "potential increased: {} -> {}", w[0], w[1]);
        }
    }

    /// First-fit assignments are proper for every weight vector and n.
    #[test]
    fn first_fit_always_proper(weights in arb_weights(), n in 1usize..30) {
        let tasks = TaskSet::new(weights);
        let a = assignment::first_fit(&tasks, n);
        prop_assert!(assignment::is_proper(&tasks, &a, n));
        // every task assigned to a valid resource
        prop_assert!(a.iter().all(|&r| (r as usize) < n));
        prop_assert_eq!(a.len(), tasks.len());
    }

    /// Weight specs produce sets consistent with their declared size and
    /// the w_min >= 1 normalization.
    #[test]
    fn weight_specs_well_formed(
        m in 1usize..400,
        hi in 1.0f64..64.0,
        seed in any::<u64>(),
        which in 0usize..4,
    ) {
        let spec = match which {
            0 => WeightSpec::Uniform { m },
            1 => WeightSpec::SingleHeavy { m, heavy: hi.max(1.0) },
            2 => WeightSpec::UniformRange { m, hi: hi.max(1.0) },
            _ => WeightSpec::ParetoTruncated { m, alpha: 1.5, cap: hi.max(1.0) },
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let tasks = spec.generate(&mut rng);
        prop_assert_eq!(tasks.len(), m);
        prop_assert_eq!(spec.num_tasks(), m);
        prop_assert!(tasks.w_min() >= 1.0 - 1e-12);
        prop_assert!(tasks.w_max() <= hi.max(1.0) + 1e-9);
        prop_assert!((tasks.weights().iter().sum::<f64>() - tasks.total_weight()).abs() < 1e-9);
    }

    /// The balancing time never exceeds the Theorem-11 style bound scaled
    /// by a safety factor (empirically the bound is loose by orders of
    /// magnitude — here we only assert the direction).
    #[test]
    fn user_rounds_within_theorem11_envelope(
        m in 50usize..300,
        heavy in 2.0f64..32.0,
        seed in any::<u64>(),
    ) {
        let tasks = WeightSpec::SingleHeavy { m, heavy }.generate(
            &mut SmallRng::seed_from_u64(seed ^ 1),
        );
        let n = 20usize;
        let cfg = UserControlledConfig::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = run_user_controlled(n, &tasks, Placement::AllOnOne(0), &cfg, &mut rng);
        prop_assert!(out.balanced());
        let bound = tlb_core::drift::theorem11_bound(0.2, 1.0, heavy, 1.0, m);
        // At alpha = 1 the measured time sits far below the analytic bound.
        prop_assert!(
            (out.rounds as f64) <= bound,
            "rounds {} above Theorem-11 bound {bound}",
            out.rounds
        );
    }
}

// ---------------------------------------------------------------------
// The SoA fragment surface.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `StackFragment::split` then `join` round-trips the SoA stepper
    /// state bit-identically at every shard count — loads, task order
    /// within each stack, everything — so sharding the engine can never
    /// move a trajectory by reshaping state.
    #[test]
    fn fragment_split_join_round_trips_across_shard_counts(
        n in 1usize..40,
        m in 0usize..160,
        shards in 1usize..12,
        seed in any::<u64>(),
    ) {
        use tlb_core::fragment::StackFragment;
        use tlb_core::stack::ResourceStack;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut stacks: Vec<ResourceStack> = (0..n).map(|_| ResourceStack::new()).collect();
        let mut weights = Vec::new();
        for t in 0..m as u32 {
            let w = 1.0 + (rng.gen_range(0u32..64) as f64) / 8.0;
            weights.push(w);
            let v = rng.gen_range(0..n);
            stacks[v].push(t, w);
        }
        let partition = tlb_graphs::Partition::contiguous(n, shards);
        let fragments = StackFragment::split(stacks.clone(), &partition);
        prop_assert_eq!(fragments.len(), partition.num_shards());
        let rejoined = StackFragment::join(fragments);
        // PartialEq on ResourceStack compares task ids in stack order and
        // exact load bits — bit-identity, not just equal sums.
        prop_assert_eq!(&stacks, &rejoined);
        let before: f64 = stacks.iter().map(|s| s.load()).sum();
        let after: f64 = rejoined.iter().map(|s| s.load()).sum();
        prop_assert_eq!(before.to_bits(), after.to_bits());
    }
}
