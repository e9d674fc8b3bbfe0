//! Walk-step kernel: the cohort kernel `step_cohort` vs its per-word
//! reference loop (`step_cohort_per_word`) on the topologies the
//! protocols actually run — expander (random regular, the paper's
//! fast-mixing case), cycle (degree 2, slow mixing), and star (maximal
//! degree skew) — at several degrees.
//!
//! Throughput is reported per walker step. Both variants draw the same
//! counter-based words and land every walker on the same node; the
//! kernel's margin comes from hoisting the walk-kind dispatch out of the
//! loop, the flat-CSR path on regular graphs and the branchless lazy
//! stay-select.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_graphs::generators::{cycle, random_regular, star};
use tlb_graphs::{Graph, NodeId};
use tlb_walks::batch::step_cohort_per_word;
use tlb_walks::{mix_pair, step_cohort, WalkKind};

/// Walkers per cohort: the order of magnitude of ejected tasks per round
/// in the Section-7 experiments.
const COHORT: usize = 1024;

fn graphs() -> Vec<(String, Graph)> {
    let mut rng = SmallRng::seed_from_u64(0xE1);
    let mut out = Vec::new();
    for d in [8usize, 16, 64] {
        out.push((
            format!("expander_d{d}"),
            random_regular(1024, d, &mut rng).expect("regular graph"),
        ));
    }
    out.push(("cycle_d2".to_string(), cycle(1024)));
    out.push(("star_d1023".to_string(), star(1024)));
    out
}

type Stepper = fn(&Graph, WalkKind, &mut [NodeId], u64);

fn bench_walk_kernel(c: &mut Criterion) {
    for kind in [WalkKind::MaxDegree, WalkKind::Lazy] {
        let mut group = c.benchmark_group(format!("walk_kernel/{}", kind.label()));
        group.throughput(Throughput::Elements(COHORT as u64));
        for (name, g) in graphs() {
            // A node-ordered cohort spread over the whole graph.
            let n = g.num_nodes();
            let starts: Vec<NodeId> = (0..COHORT).map(|i| (i * n / COHORT) as NodeId).collect();
            let variants: [(&str, Stepper); 2] =
                [("per_word", step_cohort_per_word), ("cohort", step_cohort)];
            for (label, step) in variants {
                group.bench_with_input(BenchmarkId::new(label, &name), &g, |b, g| {
                    let mut round = 0u64;
                    let mut positions = starts.clone();
                    b.iter(|| {
                        // Every step restarts from the sorted cohort, as
                        // each protocol round does.
                        positions.copy_from_slice(&starts);
                        step(g, kind, &mut positions, mix_pair(7, round));
                        round += 1;
                        positions[0]
                    })
                });
            }
        }
        group.finish();
    }
}

criterion_group!(benches, bench_walk_kernel);
criterion_main!(benches);
