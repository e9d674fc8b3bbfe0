//! Steady-state allocation discipline of the protocol round loops.
//!
//! The steppers promise that a round allocates nothing once the reused
//! buffers (ejection cohort, walk positions, destination words, pending
//! arrivals, per-resource stacks) have grown to the run's working size.
//! This test pins that promise with a counting global allocator: after a
//! warm-up prefix of rounds, every remaining round of the run must
//! perform **zero** heap allocations (and zero reallocations).
//!
//! The file contains exactly one `#[test]` on purpose: the test harness
//! runs tests in one process, and any concurrent test's allocations
//! would pollute the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::mixed_protocol::{Departure, MixedConfig, MixedStepper};
use tlb_core::prelude::*;
use tlb_core::resource_protocol::ResourceControlledStepper;
use tlb_core::stack::ResourceStack;
use tlb_core::user_protocol::UserControlledStepper;
use tlb_graphs::generators::torus2d;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Count allocations across `f`.
fn count_allocs<F: FnOnce()>(f: F) -> usize {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    f();
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed)
}

/// Hotspot stacks on `n` resources — every task on resource 0 — where
/// every stack already has room for all the tasks, so no stack grows
/// during a run. Which stacks a run's load wave reaches, and when, depends
/// on the walk stream; with room reserved up front, steady state starts
/// once round 1 has sized the round buffers (it ejects everything above
/// the threshold at once, the largest cohort of the run), at any seed.
fn hotspot_with_room(n: usize, tasks: &TaskSet) -> Vec<ResourceStack> {
    let weights = tasks.weights();
    let mut spill = Vec::new();
    let mut stacks: Vec<ResourceStack> = (0..n)
        .map(|_| {
            let mut stack = ResourceStack::new();
            for (t, &w) in weights.iter().enumerate() {
                stack.push(t as TaskId, w);
            }
            // Threshold 0 ejects the whole stack; the capacity stays.
            stack.remove_active_into(0.0, weights, &mut spill);
            spill.clear();
            stack
        })
        .collect();
    for (t, &w) in weights.iter().enumerate() {
        stacks[0].push(t as TaskId, w);
    }
    stacks
}

#[test]
fn round_loops_allocate_nothing_in_steady_state() {
    // Resource-controlled: hotspot drain on a slow-mixing torus. After
    // round 1 every remaining round must be allocation-free.
    let g = torus2d(8, 8);
    let tasks = TaskSet::new((0..600).map(|i| 1.0 + (i % 4) as f64).collect::<Vec<_>>());
    let n = g.num_nodes();
    let cfg = ResourceControlledConfig::default();
    let threshold = cfg.threshold.value(tasks.total_weight(), n, tasks.w_max());
    let mut rng = SmallRng::seed_from_u64(42);
    let mut stepper = ResourceControlledStepper::from_parts(
        hotspot_with_room(n, &tasks),
        tasks.weights().to_vec(),
        threshold,
        cfg,
    );
    stepper.step(&g, &mut rng);
    assert!(!stepper.is_done(), "round 1 must not finish the run (weaken the workload?)");
    let allocs = count_allocs(|| while !stepper.step(&g, &mut rng) {});
    let rounds = stepper.rounds();
    assert!(stepper.is_balanced(), "run must balance");
    assert!(rounds > 20, "need a meaningful steady-state tail");
    assert_eq!(allocs, 0, "resource-controlled steady-state rounds allocated ({rounds} rounds)");

    // User-controlled: same discipline for the Bernoulli departure loop
    // and the bulk destination words. A damped α stretches the run to 46
    // rounds (α = 1 balances in 7 — no tail to measure); stack
    // capacities stop growing at round 32 at this seed, so a 36-round
    // warm-up leaves a 10-round allocation-free tail.
    let mut rng = SmallRng::seed_from_u64(7);
    let ucfg = UserControlledConfig { alpha: 0.25, ..Default::default() };
    let mut stepper =
        UserControlledStepper::new(60, &tasks, Placement::AllOnOne(0), &ucfg, &mut rng);
    // The user stepper ignores its graph parameter (signature parity with
    // the siblings); reuse the torus so the loop allocates nothing new.
    for _ in 0..36 {
        stepper.step(&g, &mut rng);
    }
    assert!(!stepper.is_done(), "warm-up must not finish the run (weaken the workload?)");
    let allocs = count_allocs(|| while !stepper.step(&g, &mut rng) {});
    assert!(stepper.is_balanced());
    assert_eq!(allocs, 0, "user-controlled steady-state rounds allocated");

    // Mixed: the walk cohort on the torus via AllActive departures, from
    // the same roomy hotspot. The Bernoulli mode is deliberately not
    // pinned here: it departs a random share of each overloaded stack,
    // so round 1 need not be the largest cohort, and a later cohort that
    // outgrows the buffers is working-set growth, not a
    // buffer-discipline regression.
    let mut rng = SmallRng::seed_from_u64(11);
    let mcfg = MixedConfig { departure: Departure::AllActive, ..Default::default() };
    let mut stepper = MixedStepper::from_parts(
        hotspot_with_room(n, &tasks),
        tasks.weights().to_vec(),
        threshold,
        tasks.w_max(),
        mcfg,
    );
    stepper.step(&g, &mut rng);
    assert!(!stepper.is_done(), "round 1 must not finish the run (weaken the workload?)");
    let allocs = count_allocs(|| while !stepper.step(&g, &mut rng) {});
    assert!(stepper.is_balanced());
    assert!(stepper.rounds() > 20, "need a meaningful steady-state tail");
    assert_eq!(allocs, 0, "mixed steady-state rounds allocated");
}
