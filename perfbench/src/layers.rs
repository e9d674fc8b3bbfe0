//! Layer probes every traced run makes: RNG words and counter-based walk
//! steps, timed from outside through the public functions.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use tlb_graphs::{Graph, NodeId};
use tlb_sim::shard::{walk_dest, walk_word};
use tlb_walks::WalkKind;

use crate::Metrics;
use perfbench::stats;

/// Words or steps per probe repetition.
const PROBE_LEN: u64 = 1 << 22;
/// Repetitions per probe; the median rate is reported.
const PROBE_REPS: usize = 5;

/// Median rate (items per second) of `PROBE_REPS` runs of `body`.
fn rate(mut body: impl FnMut() -> u64) -> f64 {
    let rates: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(body());
            PROBE_LEN as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&rates)
}

/// `rand.small_words_per_s`, `rand.counter_words_per_s` and
/// `walks.counter_steps_per_s` (a max-degree walk on `g`).
pub fn probe(g: &Graph, seed: u64, out: &mut Metrics) {
    let mut rng = SmallRng::seed_from_u64(seed);
    out.put(
        "rand.small_words_per_s",
        rate(|| (0..PROBE_LEN).fold(0, |acc, _| acc ^ rng.next_u64())),
    );
    out.put(
        "rand.counter_words_per_s",
        rate(|| {
            (0..PROBE_LEN).fold(0, |acc, i| acc ^ walk_word(seed, (i & 0xFFFF) as NodeId, i >> 16))
        }),
    );
    let n = g.num_nodes() as u64;
    out.put(
        "walks.counter_steps_per_s",
        rate(|| {
            let mut v = (seed % n) as NodeId;
            for i in 0..PROBE_LEN {
                v = walk_dest(g, WalkKind::MaxDegree, v, walk_word(seed, v, i & 0xFFFF));
            }
            v as u64
        }),
    );
}
