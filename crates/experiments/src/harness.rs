//! Rayon-parallel trial fan-out with deterministic seeding.
//!
//! Section 7 of the paper averages every data point over 1000 independent
//! trials. Trials are embarrassingly parallel; the harness fans them out
//! over the rayon shim's persistent worker pool while keeping results
//! bit-reproducible: trial `t` of an experiment with base seed `s` always
//! uses the derived seed `splitmix(s, t)`, independent of thread
//! scheduling, and every parallel entry point returns exactly what its
//! sequential evaluation would. The pool self-schedules fixed-size chunks,
//! so sweeps whose trials have very different costs (slow-mixing graphs
//! next to fast ones) still keep every core busy.
//!
//! Whole sweeps go through [`run_sweep`], which flattens the
//! `(sweep-point × trial)` grid into one pool batch — no per-point
//! straggler barrier — while staying bit-identical to the per-point
//! [`run_trials`] loop.
//!
//! The harness also runs any protocol: a [`ProtocolPoint`] names a
//! `(protocol × graph × workload × placement)` cell through a
//! [`ProtocolKind`] (the paper protocols and the related-work baselines
//! alike), and [`run_protocol_trials`]/[`run_protocol_sweep`] fan its
//! trials out over the pool, returning full [`ProtocolOutcome`]s —
//! bit-identical to calling the one-shot `run_*` entry points with the
//! same derived seeds.

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use tlb_core::placement::Placement;
use tlb_core::protocol::{ProtocolKind, ProtocolOutcome};
use tlb_core::weights::WeightSpec;
use tlb_graphs::Graph;

/// Bound of the streaming-variant channel: a slow consumer back-pressures
/// the workers after this many undelivered results (public so tests can
/// derive deterministic abort bounds from it).
pub const STREAM_CHANNEL_CAPACITY: usize = 256;

/// Derive the seed of trial `index` from a base seed: the workspace's one
/// splitmix pair mix ([`tlb_walks::mix_pair`]), so neighbouring trials
/// get decorrelated streams.
#[inline]
pub fn trial_seed(base: u64, index: u64) -> u64 {
    tlb_walks::mix_pair(base, index)
}

/// Run `trials` independent trials in parallel; `f(seed)` must be a pure
/// function of its seed. Results are returned in trial order.
pub fn run_trials<F>(trials: usize, base_seed: u64, f: F) -> Vec<f64>
where
    F: Fn(u64) -> f64 + Sync,
{
    (0..trials as u64)
        .into_par_iter()
        .map(|t| f(trial_seed(base_seed, t)))
        .collect()
}

/// Sequential variant (used by the harness-scaling ablation to measure the
/// pool speedup, and handy under a profiler).
pub fn run_trials_sequential<F>(trials: usize, base_seed: u64, f: F) -> Vec<f64>
where
    F: Fn(u64) -> f64,
{
    (0..trials as u64).map(|t| f(trial_seed(base_seed, t))).collect()
}

/// Parallel trials with a progress callback. Completions are counted with
/// an atomic (workers never serialize on the count), and only the callback
/// invocation itself takes a lock — a slow callback delays at most the
/// workers that have a completion to report, not the whole pool. Each
/// invocation receives a distinct completion count in `1..=trials`, but
/// counts can arrive out of order under parallelism; drivers that print
/// "k% done" should track the maximum seen.
pub fn run_trials_with_progress<F, P>(trials: usize, base_seed: u64, f: F, progress: P) -> Vec<f64>
where
    F: Fn(u64) -> f64 + Sync,
    P: FnMut(usize) + Send,
{
    let done = AtomicUsize::new(0);
    let progress = Mutex::new(progress);
    (0..trials as u64)
        .into_par_iter()
        .map(|t| {
            let r = f(trial_seed(base_seed, t));
            let count = done.fetch_add(1, Ordering::Relaxed) + 1;
            (progress.lock())(count);
            r
        })
        .collect()
}

/// Run a generic per-trial function returning any `Send` payload (used
/// when a trial yields more than one metric).
pub fn run_trials_map<T, F>(trials: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    (0..trials as u64)
        .into_par_iter()
        .map(|t| f(trial_seed(base_seed, t)))
        .collect()
}

/// Run a whole sweep — `point_seeds.len()` parameter points × `trials`
/// trials each — as **one** self-scheduled pool batch instead of one
/// batch per point.
///
/// A per-point loop (`for seed in point_seeds { run_trials(trials, seed,
/// …) }`) puts a barrier after every sweep point: each call waits for its
/// slowest trial while the other cores idle, and sweeps whose points have
/// very different costs (slow-mixing graphs next to fast ones, tight
/// thresholds next to loose ones) pay that straggler tax once per point.
/// Flattening the `(point, trial)` grid into a single batch lets the
/// pool's chunk self-scheduling fill every core until the *whole sweep*
/// runs dry — the only barrier is the final one.
///
/// Output contract (proptest-pinned): `run_sweep(seeds, trials, f)[i]` is
/// bit-identical to `run_trials(trials, seeds[i], |s| f(i, s))`, for any
/// thread count — trial `t` of point `i` always runs with seed
/// `trial_seed(point_seeds[i], t)`, regardless of scheduling.
pub fn run_sweep<F>(point_seeds: &[u64], trials: usize, f: F) -> Vec<Vec<f64>>
where
    F: Fn(usize, u64) -> f64 + Sync,
{
    run_sweep_map(point_seeds, trials, f)
}

/// Generic-payload variant of [`run_sweep`] (the `run_trials_map` analog).
pub fn run_sweep_map<T, F>(point_seeds: &[u64], trials: usize, f: F) -> Vec<Vec<T>>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    if trials == 0 {
        return point_seeds.iter().map(|_| Vec::new()).collect();
    }
    let total = point_seeds.len() * trials;
    let mut flat: Vec<T> = (0..total as u64)
        .into_par_iter()
        .map(|k| {
            let point = k as usize / trials;
            let t = (k as usize % trials) as u64;
            f(point, trial_seed(point_seeds[point], t))
        })
        .collect();
    // Unflatten back-to-front so each split is O(trials).
    let mut out: Vec<Vec<T>> = Vec::with_capacity(point_seeds.len());
    for p in (0..point_seeds.len()).rev() {
        out.push(flat.split_off(p * trials));
    }
    out.reverse();
    out
}

/// One `(protocol × graph × workload × placement)` cell of a protocol
/// sweep. Each trial regenerates the workload from its derived seed, so
/// the cell is a pure function of `seed` like every other harness entry
/// point.
#[derive(Debug, Clone)]
pub struct ProtocolPoint {
    /// Graph the stepper runs on (the user protocol ignores topology but
    /// still uses `graph.num_nodes()` as its resource count).
    pub graph: Graph,
    /// Per-trial workload generator.
    pub weights: WeightSpec,
    /// Initial placement.
    pub placement: Placement,
    /// Which protocol runs the cell.
    pub protocol: ProtocolKind,
    /// Base seed of the cell (trial `t` runs with `trial_seed(seed, t)`).
    pub seed: u64,
}

/// One trial of a protocol point: generate the workload, run the
/// protocol to completion, report the outcome.
fn run_protocol_once(p: &ProtocolPoint, seed: u64) -> ProtocolOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let tasks = p.weights.generate(&mut rng);
    let mut stepper = p.protocol.new_stepper(&p.graph, &tasks, p.placement.clone(), &mut rng);
    stepper.run(&p.graph, &mut rng);
    stepper.into_outcome()
}

/// Run `trials` independent trials of one protocol point in parallel;
/// outcomes are returned in trial order.
pub fn run_protocol_trials(point: &ProtocolPoint, trials: usize) -> Vec<ProtocolOutcome> {
    run_trials_map(trials, point.seed, |s| run_protocol_once(point, s))
}

/// Run a whole protocol sweep — every `(point × trial)` pair as **one**
/// self-scheduled pool batch, like [`run_sweep`]. `out[i]` is
/// bit-identical to `run_protocol_trials(&points[i], trials)`.
pub fn run_protocol_sweep(points: &[ProtocolPoint], trials: usize) -> Vec<Vec<ProtocolOutcome>> {
    let seeds: Vec<u64> = points.iter().map(|p| p.seed).collect();
    run_sweep_map(&seeds, trials, |i, s| run_protocol_once(&points[i], s))
}

/// Streaming variant: trials run on the worker pool while a consumer
/// receives `(trial_index, result)` pairs over a crossbeam channel *as
/// they finish* (completion order, not trial order). Useful for live
/// dashboards and for aborting long sweeps early; the returned vector is
/// whatever the consumer produced.
///
/// The consumer runs on the calling thread; the channel is bounded at
/// [`STREAM_CHANNEL_CAPACITY`] so a slow consumer back-pressures the
/// workers instead of buffering the whole sweep.
pub fn run_trials_streaming<T, F, C, O>(trials: usize, base_seed: u64, f: F, consumer: C) -> O
where
    T: Send,
    F: Fn(u64) -> T + Sync + Send,
    C: FnOnce(crossbeam::channel::Receiver<(usize, T)>) -> O,
{
    use std::sync::atomic::AtomicBool;

    let (tx, rx) = crossbeam::channel::bounded::<(usize, T)>(STREAM_CHANNEL_CAPACITY);
    // Flipped when the consumer drops the receiver, so remaining trials
    // are skipped instead of computed into a closed channel.
    let aborted = AtomicBool::new(false);
    let aborted = &aborted;
    crossbeam::scope(|scope| {
        scope.spawn(move |_| {
            (0..trials as u64).into_par_iter().for_each_with(tx, |tx, t| {
                if aborted.load(Ordering::Relaxed) {
                    return;
                }
                let r = f(trial_seed(base_seed, t));
                if tx.send((t as usize, r)).is_err() {
                    // Receiver dropped early (consumer aborted): stop
                    // burning CPU on trials nobody will read.
                    aborted.store(true, Ordering::Relaxed);
                }
            });
        });
        consumer(rx)
    })
    .expect("streaming harness thread panicked")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_and_deterministic() {
        let seeds: Vec<u64> = (0..1000).map(|t| trial_seed(42, t)).collect();
        let set: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(set.len(), seeds.len(), "seed collision");
        assert_eq!(trial_seed(42, 7), trial_seed(42, 7));
        assert_ne!(trial_seed(42, 7), trial_seed(43, 7));
    }

    #[test]
    fn parallel_matches_sequential() {
        let f = |seed: u64| (seed % 1000) as f64;
        let par = run_trials(500, 9, f);
        let seq = run_trials_sequential(500, 9, f);
        assert_eq!(par, seq);
    }

    #[test]
    fn results_in_trial_order() {
        let out = run_trials(100, 0, |s| s as f64);
        let expected: Vec<f64> = (0..100).map(|t| trial_seed(0, t) as f64).collect();
        assert_eq!(out, expected);
    }

    /// Trial whose cost varies ~100x with the seed — the uneven workload
    /// the pool's chunk self-scheduling exists for.
    fn uneven(seed: u64) -> f64 {
        let mut acc = seed;
        for _ in 0..(seed % 97) * 37 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }
        (acc % 100_000) as f64
    }

    #[test]
    fn all_entry_points_match_sequential_on_uneven_work() {
        let trials = 257;
        let seq = run_trials_sequential(trials, 11, uneven);
        assert_eq!(run_trials(trials, 11, uneven), seq);
        assert_eq!(run_trials_map(trials, 11, uneven), seq);
        assert_eq!(run_trials_with_progress(trials, 11, uneven, |_| {}), seq);
        let mut streamed =
            run_trials_streaming(trials, 11, uneven, |rx| rx.iter().collect::<Vec<(usize, f64)>>());
        streamed.sort_unstable_by_key(|&(i, _)| i);
        let streamed: Vec<f64> = streamed.into_iter().map(|(_, v)| v).collect();
        assert_eq!(streamed, seq);
    }

    #[test]
    fn pool_is_reused_across_successive_calls() {
        for round in 0..20 {
            let seq = run_trials_sequential(64, round, uneven);
            assert_eq!(run_trials(64, round, uneven), seq, "round {round}");
        }
        // The shim's persistent pool spawns its workers exactly once.
        assert_eq!(rayon::worker_spawn_count(), rayon::current_num_threads().saturating_sub(1));
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let bad = trial_seed(5, 17);
        let result = std::panic::catch_unwind(|| {
            run_trials(64, 5, move |s| if s == bad { panic!("trial exploded") } else { 1.0 })
        });
        assert!(result.is_err(), "a panicking trial must panic the caller");
        // The pool stays usable after the propagated panic.
        assert_eq!(run_trials(8, 0, |s| s as f64), run_trials_sequential(8, 0, |s| s as f64));
    }

    #[test]
    fn progress_callback_sees_every_trial() {
        let hits = AtomicUsize::new(0);
        let out = run_trials_with_progress(
            64,
            1,
            |s| s as f64,
            |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(out.len(), 64);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn progress_reports_each_count_exactly_once() {
        let counts = Mutex::new(Vec::new());
        run_trials_with_progress(100, 2, |s| s as f64, |c| counts.lock().push(c));
        let mut got = counts.into_inner();
        got.sort_unstable();
        assert_eq!(got, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn streaming_delivers_every_trial_once() {
        let seen = run_trials_streaming(
            200,
            3,
            |s| s % 97,
            |rx| {
                let mut got: Vec<(usize, u64)> = rx.iter().collect();
                got.sort_unstable();
                got
            },
        );
        assert_eq!(seen.len(), 200);
        for (i, (idx, val)) in seen.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*val, trial_seed(3, i as u64) % 97);
        }
    }

    #[test]
    fn streaming_consumer_can_abort_early() {
        let first_five = run_trials_streaming(1000, 7, |s| s, |rx| rx.iter().take(5).count());
        assert_eq!(first_five, 5);
        // Workers observing the dropped receiver must not panic the pool.
    }

    #[test]
    fn streaming_abort_skips_remaining_work() {
        let computed = AtomicUsize::new(0);
        let trials = 100_000;
        let taken = run_trials_streaming(
            trials,
            7,
            |s| {
                computed.fetch_add(1, Ordering::Relaxed);
                s
            },
            |rx| rx.iter().take(5).count(),
        );
        assert_eq!(taken, 5);
        // Deterministic bound, independent of core count and scheduling:
        // until the receiver drops, at most `taken` delivered plus
        // `STREAM_CHANNEL_CAPACITY` buffered results can have been
        // computed (the bounded channel blocks every further send), plus
        // one in-flight trial per executor blocked in `send`; after the
        // drop, each executor computes at most one more trial before its
        // failed send raises the abort flag and the per-trial check skips
        // the rest.
        let executors = rayon::current_num_threads();
        let bound = taken + STREAM_CHANNEL_CAPACITY + 2 * executors;
        let done = computed.load(Ordering::Relaxed);
        assert!(done <= bound, "abort did not bound work: {done} computed, bound {bound}");
        assert!(done < trials, "abort saved no work at all");
    }

    #[test]
    fn streaming_consumer_can_make_parallel_calls() {
        // Deadlock regression: the producer's batch back-pressures on the
        // bounded channel while the consumer issues its own parallel call
        // (live-dashboard aggregation). The pool must run the consumer's
        // call inline instead of queueing behind the in-flight batch —
        // queueing deadlocks because the batch is waiting on the consumer.
        let trials = STREAM_CHANNEL_CAPACITY * 4;
        let total = run_trials_streaming(
            trials,
            13,
            |s| s % 11,
            |rx| {
                let mut sum = 0u64;
                for (i, (_, v)) in rx.iter().enumerate() {
                    sum += v;
                    if i == 3 {
                        // Parallel call while the producer is blocked on us.
                        let nested = run_trials(32, 99, |s| (s % 7) as f64);
                        assert_eq!(nested, run_trials_sequential(32, 99, |s| (s % 7) as f64));
                    }
                }
                sum
            },
        );
        let expected: u64 = (0..trials as u64).map(|t| trial_seed(13, t) % 11).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn run_sweep_matches_per_point_loop_bitwise() {
        // The whole-sweep batch must reproduce the per-point scheduling
        // exactly — same seeds, same order — on the uneven workload.
        let seeds = [3u64, 99, 3, 0xDEAD]; // duplicate seeds are legal
        let trials = 37;
        let swept = run_sweep(&seeds, trials, |_, s| uneven(s));
        assert_eq!(swept.len(), seeds.len());
        for (i, &seed) in seeds.iter().enumerate() {
            assert_eq!(swept[i], run_trials(trials, seed, uneven), "point {i}");
        }
    }

    #[test]
    fn run_sweep_point_index_reaches_the_closure() {
        let seeds = [1u64, 2, 3];
        let swept = run_sweep_map(&seeds, 4, |point, seed| (point, seed));
        for (i, point_results) in swept.iter().enumerate() {
            for (t, &(point, seed)) in point_results.iter().enumerate() {
                assert_eq!(point, i);
                assert_eq!(seed, trial_seed(seeds[i], t as u64));
            }
        }
    }

    #[test]
    fn run_sweep_degenerate_shapes() {
        let empty: Vec<Vec<f64>> = run_sweep(&[], 10, |_, s| s as f64);
        assert!(empty.is_empty());
        let zero_trials = run_sweep(&[1, 2], 0, |_, s| s as f64);
        assert_eq!(zero_trials, vec![Vec::<f64>::new(), Vec::new()]);
        let single = run_sweep(&[7], 1, |_, s| s as f64);
        assert_eq!(single, vec![vec![trial_seed(7, 0) as f64]]);
    }

    #[test]
    fn protocol_trials_match_direct_one_shot_calls() {
        use tlb_core::resource_protocol::{run_resource_controlled, ResourceControlledConfig};
        let g = tlb_graphs::generators::torus2d(4, 4);
        let spec = WeightSpec::Uniform { m: 120 };
        let pcfg = ResourceControlledConfig::default();
        let point = ProtocolPoint {
            graph: g.clone(),
            weights: spec.clone(),
            placement: Placement::AllOnOne(0),
            protocol: ProtocolKind::Resource(pcfg.clone()),
            seed: 77,
        };
        let outcomes = run_protocol_trials(&point, 6);
        for (t, out) in outcomes.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(trial_seed(77, t as u64));
            let tasks = spec.generate(&mut rng);
            let direct =
                run_resource_controlled(&g, &tasks, Placement::AllOnOne(0), &pcfg, &mut rng);
            assert_eq!(*out, direct, "trial {t} diverged from the direct call");
        }
    }

    #[test]
    fn protocol_sweep_matches_per_point_trials() {
        use tlb_core::baseline_protocol::BaselineConfig;
        let g = tlb_graphs::generators::complete(10);
        let mk = |protocol: ProtocolKind, seed: u64| ProtocolPoint {
            graph: g.clone(),
            weights: WeightSpec::Uniform { m: 80 },
            placement: Placement::AllOnOne(0),
            protocol,
            seed,
        };
        let points = vec![
            mk(ProtocolKind::User(Default::default()), 1),
            mk(ProtocolKind::Baseline(BaselineConfig::default()), 2),
            mk(ProtocolKind::Mixed(Default::default()), 3),
        ];
        let swept = run_protocol_sweep(&points, 5);
        assert_eq!(swept.len(), 3);
        for (i, point) in points.iter().enumerate() {
            assert_eq!(swept[i], run_protocol_trials(point, 5), "point {i}");
            assert!(swept[i].iter().all(|o| o.balanced()));
        }
    }

    #[test]
    fn matrix_protocol_labels() {
        use tlb_core::baseline_protocol::BaselineConfig;
        // The matrix's CSV keys: core protocols by name, baselines by rule.
        assert_eq!(ProtocolKind::Resource(Default::default()).label(), "resource");
        assert_eq!(ProtocolKind::Baseline(BaselineConfig::default()).label(), "greedy2");
    }

    #[test]
    fn map_variant_carries_structs() {
        #[derive(PartialEq, Debug)]
        struct Pair(u64, f64);
        let out = run_trials_map(10, 5, |s| Pair(s, s as f64 * 0.5));
        assert_eq!(out.len(), 10);
        assert_eq!(out[3], Pair(trial_seed(5, 3), trial_seed(5, 3) as f64 * 0.5));
    }
}
