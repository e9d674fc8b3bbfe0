//! `oneshot`: a closed loop over a fixed, seed-derived list of paper
//! trials, fanned out over the worker pool by `harness::run_trials_map`.
//!
//! A pass runs `TRIALS_PER_KIND` trials of each of three kinds, all with
//! every task starting on node 0:
//!
//! * `resource_d8` — the resource-controlled protocol (max-degree walk)
//!   on `random_regular(4096, 8)` with Figure 2's workload
//!   (40960 tasks, one of weight 16);
//! * `user_complete` — the user-controlled protocol at Figure 1's point
//!   n = 1000, W = 10⁴, k = 50 heavy tasks of weight 50;
//! * `lazy_cube` — the resource-controlled protocol with the lazy walk on
//!   `hypercube(12)` with Figure 2's workload.
//!
//! The same pass repeats until the time is up, so every pass must give
//! the same rounds per trial. Checks: every trial balances, and the
//! rounds repeat exactly across passes and against a sequential rerun.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::placement::Placement;
use tlb_core::protocol::ProtocolKind;
use tlb_core::resource_protocol::ResourceControlledConfig;
use tlb_core::user_protocol::UserControlledConfig;
use tlb_core::weights::WeightSpec;
use tlb_experiments::harness::{self, trial_seed};
use tlb_graphs::generators::{complete, hypercube, random_regular};
use tlb_graphs::Graph;
use tlb_walks::WalkKind;

use crate::{layers, peak_rss_mb, Metrics, Opts, Outcome, SETUP_REPEATS};
use perfbench::spans::SpanLog;
use perfbench::stats::{self, Tally};

/// Trials of each kind per pass.
const TRIALS_PER_KIND: usize = 32;
/// Fewest passes a run makes, whatever the time: enough trials for the
/// p90 rule, and a traced and an untraced pass in a traced run.
const MIN_PASSES: usize = 4;
/// Trials per kind in the sequential-versus-pool comparison.
const SPEEDUP_TRIALS: usize = 8;

/// One trial kind with its inputs and span names.
struct Kind {
    name: &'static str,
    trial_span: &'static str,
    init_span: &'static str,
    step_span: &'static str,
    protocol: ProtocolKind,
    weights: WeightSpec,
    graph: Graph,
    /// Base seed of the kind's trial list.
    seed: u64,
}

/// Everything a run measures against.
struct Setup {
    kinds: Vec<Kind>,
    generate_s: f64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let mut rng = SmallRng::seed_from_u64(trial_seed(seed, 0x6EA9));
    let d8 = random_regular(4096, 8, &mut rng).map_err(|e| format!("random_regular: {e}"))?;
    let cube = hypercube(12);
    let k1000 = complete(1000);
    let generate_s = t.elapsed().as_secs_f64();
    let resource =
        |walk| ProtocolKind::Resource(ResourceControlledConfig { walk, ..Default::default() });
    let kinds = vec![
        Kind {
            name: "resource_d8",
            trial_span: "resource_d8.trial",
            init_span: "resource_d8.init",
            step_span: "resource_d8.step",
            protocol: resource(WalkKind::MaxDegree),
            weights: WeightSpec::figure2(40960, 16.0),
            graph: d8,
            seed: trial_seed(seed, 0x100),
        },
        Kind {
            name: "user_complete",
            trial_span: "user_complete.trial",
            init_span: "user_complete.init",
            step_span: "user_complete.step",
            protocol: ProtocolKind::User(UserControlledConfig::default()),
            weights: WeightSpec::figure1(10_000.0, 50),
            graph: k1000,
            seed: trial_seed(seed, 0x101),
        },
        Kind {
            name: "lazy_cube",
            trial_span: "lazy_cube.trial",
            init_span: "lazy_cube.init",
            step_span: "lazy_cube.step",
            protocol: resource(WalkKind::Lazy),
            weights: WeightSpec::figure2(40960, 16.0),
            graph: cube,
            seed: trial_seed(seed, 0x102),
        },
    ];
    Ok(Setup { kinds, generate_s })
}

/// What one trial reports.
struct Trial {
    rounds: u64,
    migrations: u64,
    balanced: bool,
    wall_ns: u64,
    spans: Option<SpanLog>,
}

/// One trial: generate the workload, build the stepper, step to the end.
/// With `origin` set, spans wrap the set-up and every `step()` call.
fn trial(kind: &Kind, seed: u64, origin: Option<Instant>) -> Trial {
    let t0 = Instant::now();
    let mut log = origin.map(SpanLog::new);
    let root = log.as_mut().map(|l| l.open(kind.trial_span, None));
    let init = log.as_mut().map(|l| l.open(kind.init_span, root));
    let mut rng = SmallRng::seed_from_u64(seed);
    let tasks = kind.weights.generate(&mut rng);
    let mut stepper =
        kind.protocol.new_stepper(&kind.graph, &tasks, Placement::AllOnOne(0), &mut rng);
    match log.as_mut() {
        Some(l) => {
            l.close(init.expect("opened with the log"));
            loop {
                let s = l.now();
                let done = stepper.step(&kind.graph, &mut rng);
                let e = l.now();
                l.push(kind.step_span, s, e, root);
                if done {
                    break;
                }
            }
            l.close(root.expect("opened with the log"));
        }
        None => while !stepper.step(&kind.graph, &mut rng) {},
    }
    Trial {
        rounds: stepper.rounds(),
        migrations: stepper.migrations(),
        balanced: stepper.is_balanced(),
        wall_ns: t0.elapsed().as_nanos() as u64,
        spans: log,
    }
}

/// One pass: every kind's trial list through the pool. Returns the
/// trials per kind and, when traced, appends a `harness.run_trials` span
/// per kind (with the trials as children) to `log`.
fn pass(kinds: &[Kind], origin: Instant, log: Option<&mut SpanLog>) -> Vec<Vec<Trial>> {
    let traced = log.is_some();
    let mut local = SpanLog::new(origin);
    let out = kinds
        .iter()
        .map(|kind| {
            let start = local.now();
            let mut trials = harness::run_trials_map(TRIALS_PER_KIND, kind.seed, |s| {
                trial(kind, s, traced.then_some(origin))
            });
            let id = local.push("harness.run_trials", start, local.now(), None);
            for t in &mut trials {
                if let Some(spans) = t.spans.take() {
                    local.append(spans, Some(id));
                }
            }
            trials
        })
        .collect();
    if let Some(log) = log {
        log.append(local, None);
    }
    out
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut checks = Vec::new();
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut setup_log = opts.trace.then(|| SpanLog::new(Instant::now()));
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let span = setup_log.as_mut().map(|l| l.open("oneshot.setup", None));
        let t = Instant::now();
        let s = setup(opts.seed)?;
        // Warm-up: one untraced pass (pool threads up, caches filled).
        let warm = pass(&s.kinds, t, None);
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(s.generate_s);
        if let (Some(l), Some(id)) = (setup_log.as_mut(), span) {
            let start = l.spans()[id].start_ns;
            l.push("graphs.generate", start, start + (s.generate_s * 1e9) as u64, Some(id));
            l.close(id);
        }
        ready = Some((s, warm));
    }
    let (s, warm) = ready.expect("at least one set-up");
    let reference: Vec<Vec<u64>> =
        warm.iter().map(|ts| ts.iter().map(|t| t.rounds).collect()).collect();

    let origin = Instant::now();
    let mut log = opts.trace.then(|| SpanLog::new(origin));
    let mut ops = Tally::default();
    let mut trial_ms = Vec::new();
    let mut wall = [0.0f64; 2]; // [untraced, traced] pass seconds
    let mut untraced_pass_s = Vec::new();
    let mut trials_by_flavour = [0u64; 2];
    let mut traced_migrations = vec![0u64; s.kinds.len()];
    let mut passes = 0;
    loop {
        let traced = opts.trace && passes % 2 == 0;
        let t = Instant::now();
        let results = pass(&s.kinds, origin, if traced { log.as_mut() } else { None });
        let pass_s = t.elapsed().as_secs_f64();
        wall[traced as usize] += pass_s;
        if !traced {
            untraced_pass_s.push(pass_s);
        }
        for (k, trials) in results.iter().enumerate() {
            let name = s.kinds[k].name;
            if trials.iter().map(|t| t.rounds).ne(reference[k].iter().copied()) {
                fail_once(
                    &mut checks,
                    format!("{name}: rounds changed between passes of one seed"),
                );
            }
            for t in trials {
                ops.record(t.balanced);
                if !t.balanced {
                    fail_once(&mut checks, format!("{name}: a trial ended unbalanced"));
                }
                trial_ms.push(t.wall_ns as f64 / 1e6);
                trials_by_flavour[traced as usize] += 1;
                if traced {
                    traced_migrations[k] += t.migrations;
                }
            }
        }
        passes += 1;
        if passes >= MIN_PASSES && origin.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let peak_rss_mb = peak_rss_mb()?;
    let rounds_mean = stats::mean(reference.iter().flatten().map(|&r| r as f64));
    let rounds_bytes: Vec<u8> = reference.iter().flatten().flat_map(|r| r.to_le_bytes()).collect();
    checks.extend(crate::check_repeat(opts, "oneshot", crate::digest(&rounds_bytes)));
    let mut notes = vec![format!(
        "oneshot: {passes} passes, {} trials, {} unbalanced, failed_frac {}",
        ops.attempted,
        ops.failed,
        ops.failed_frac()
    )];
    for (k, kind) in s.kinds.iter().enumerate() {
        notes.push(format!(
            "  {}: rounds per trial {:?}",
            kind.name,
            stats::mean(reference[k].iter().map(|&r| r as f64))
        ));
    }
    let mut metrics = Metrics::default();
    if !opts.trace {
        let mut sorted = trial_ms.clone();
        sorted.sort_by(f64::total_cmp);
        if !stats::tail_is_supported(sorted.len(), 0.9) {
            return Err(format!("{} trials are too few for a p90", sorted.len()));
        }
        metrics.put("setup_s", stats::median(&setup_s));
        let per_pass = (TRIALS_PER_KIND * s.kinds.len()) as f64;
        metrics.put("ops_per_s", stats::median_rate(&untraced_pass_s, per_pass));
        metrics.put("op_ms_p50", stats::percentile(&sorted, 0.5));
        metrics.put("op_ms_p90", stats::percentile(&sorted, 0.9));
        metrics.put("rounds_mean", rounds_mean);
        metrics.put("peak_rss_mb", peak_rss_mb);
        metrics.put("served_frac", ops.served_frac());
        return Ok(Outcome {
            ops,
            check_failures: checks,
            metrics,
            notes,
            spans: None,
            setup_spans: None,
        });
    }

    // Traced run: per-layer metrics from the traced passes' spans.
    let log = log.expect("traced run keeps a log");
    metrics.put("graphs.generate_s", stats::median(&generate_s));
    for (k, kind) in s.kinds.iter().enumerate() {
        let durations = |name: &str| -> Vec<f64> {
            log.spans()
                .iter()
                .filter(|sp| sp.name == name)
                .map(|sp| sp.duration_ns() as f64)
                .collect()
        };
        let steps = durations(kind.step_span);
        let step_s: f64 = steps.iter().sum::<f64>() / 1e9;
        metrics.put(format!("core.{}.round_us_p50", kind.name), stats::median(&steps) / 1e3);
        metrics.put(
            format!("core.{}.rounds_per_trial", kind.name),
            stats::mean(reference[k].iter().map(|&r| r as f64)),
        );
        metrics.put(
            format!("core.{}.migrations_per_s", kind.name),
            traced_migrations[k] as f64 / step_s,
        );
        metrics.put(
            format!("core.{}.init_us", kind.name),
            stats::median(&durations(kind.init_span)) / 1e3,
        );
    }
    let trial_s: f64 = log
        .spans()
        .iter()
        .filter(|sp| s.kinds.iter().any(|k| k.trial_span == sp.name))
        .map(|sp| sp.duration_ns() as f64 / 1e9)
        .sum();
    let fanout_s: f64 = log
        .spans()
        .iter()
        .filter(|sp| sp.name == "harness.run_trials")
        .map(|sp| sp.duration_ns() as f64 / 1e9)
        .sum();
    metrics.put("harness.busy_frac", trial_s / (rayon::current_num_threads() as f64 * fanout_s));
    metrics.put("harness.speedup_vs_sequential", speedup(&s.kinds, &mut checks));
    layers::probe(&s.kinds[0].graph, opts.seed, &mut metrics);
    let per_trial = |f: usize| wall[f] / trials_by_flavour[f] as f64;
    metrics.put("trace.overhead_frac", per_trial(1) / per_trial(0) - 1.0);
    let rows = log.self_times();
    let all_self: u64 = rows.iter().map(|r| r.self_ns).sum();
    let step_self: u64 = rows
        .iter()
        .filter(|r| s.kinds.iter().any(|k| k.step_span == r.name))
        .map(|r| r.self_ns)
        .sum();
    metrics.put("trace.step_share", step_self as f64 / all_self as f64);
    metrics.put("failed_frac", ops.failed_frac());
    Ok(Outcome {
        ops,
        check_failures: checks,
        metrics,
        notes,
        spans: Some(log),
        setup_spans: setup_log,
    })
}

/// Record a failed check unless it is already recorded.
fn fail_once(checks: &mut Vec<String>, msg: String) {
    if !checks.contains(&msg) {
        checks.push(msg);
    }
}

/// Pool speed-up: the same trials through `run_trials_sequential` and
/// through `run_trials`, summed over the kinds. Both must give the same
/// rounds.
fn speedup(kinds: &[Kind], checks: &mut Vec<String>) -> f64 {
    let mut seq_s = 0.0;
    let mut pool_s = 0.0;
    for kind in kinds {
        let rounds = |s| trial(kind, s, None).rounds as f64;
        let t = Instant::now();
        let seq = harness::run_trials_sequential(SPEEDUP_TRIALS, kind.seed, rounds);
        seq_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let pooled = harness::run_trials(SPEEDUP_TRIALS, kind.seed, rounds);
        pool_s += t.elapsed().as_secs_f64();
        if seq != pooled {
            checks.push(format!("{}: sequential and pooled trials disagree", kind.name));
        }
    }
    seq_s / pool_s
}
