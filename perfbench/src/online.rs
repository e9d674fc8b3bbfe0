//! The online workloads: the `OnlineSim` epoch loop, closed and
//! epoch-synchronous. Offered load is drawn per simulated epoch from the
//! seed, so a slow engine gets the same load per epoch, not less.
//!
//! * `online_steady` — `random_regular(4096, 8)`; set-up lands a batch
//!   of 42 600 unit tasks and balances it, then the run switches to
//!   Poisson arrivals of 42.6 per epoch with departure probability 0.001:
//!   an epoch's work is set by the live tasks, not by its ~10³ times
//!   fewer events.
//! * `online_churn` — `random_regular(4096, 8)` in 16 failure domains
//!   with power-law outages and random flaps; bursty Pareto-weighted
//!   arrivals from two tenants, an adaptive adversary placing them on the
//!   most-loaded resources, load shedding, departure probability 0.05:
//!   events and migrations per epoch are comparable to the live tasks.
//!
//! Checks: the `EpochRecord` stream of the first `gate_epochs` timed
//! epochs is byte-identical when replayed from a checkpoint with the
//! observability layer switched the other way; the replays on the live
//! state agree with the last record; and the record digest over the
//! first `min_epochs` epochs repeats across runs of one seed.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tlb_core::potential::{max_load, total_potential};
use tlb_core::protocol::live_w_max;
use tlb_core::threshold::ThresholdPolicy;
use tlb_experiments::harness::trial_seed;
use tlb_graphs::generators::random_regular;
use tlb_graphs::Graph;
use tlb_sim::{
    AdmissionPolicy, ArrivalPlacement, ArrivalProcess, ArrivalWeights, ChurnProcess, DomainSpec,
    EpochRecord, OnlineSim, OutageDuration, SimConfig, SimSnapshot, TenantSet, TenantSpec,
};

use crate::{digest, layers, Metrics, Opts, Outcome, SETUP_REPEATS};
use perfbench::spans::SpanLog;
use perfbench::stats::{self, Tally};

/// Which online workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// `online_steady`.
    Steady,
    /// `online_churn`.
    Churn,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Steady => "online_steady",
            Scenario::Churn => "online_churn",
        }
    }

    /// Fewest timed epochs, whatever the time; the deterministic outputs
    /// (counts, `rounds_mean`, digest) cover exactly these.
    fn min_epochs(self) -> usize {
        match self {
            Scenario::Steady => 10_000,
            Scenario::Churn => 4000,
        }
    }

    /// Epochs per batch of the `ops_per_s` median (about half a second;
    /// in `online_churn` a whole number of burst periods).
    fn rate_batch(self) -> usize {
        match self {
            Scenario::Steady => 500,
            Scenario::Churn => 400,
        }
    }

    /// Timed epochs replayed from the checkpoint by the gate.
    fn gate_epochs(self) -> usize {
        match self {
            Scenario::Steady => 50,
            Scenario::Churn => 200,
        }
    }

    /// Epochs run during set-up after the population is in place.
    fn warmup_epochs(self) -> usize {
        match self {
            Scenario::Steady => 200,
            Scenario::Churn => 100,
        }
    }
}

/// Resources of `online_steady` and `online_churn`. Larger sizes (10⁵
/// resources and 10⁶ tasks, or 32768 and 3.4·10⁵) put the engine's
/// state in the last-level cache or memory, which the host shares with
/// other machines: there the epoch rate moved with the neighbours' load
/// and spread 0.12–0.3 of its median between runs. At this size the
/// state is a few MiB and the spread halves, while `online_steady` keeps
/// 10³ live tasks per arrival.
const RESOURCES: usize = 4096;

/// Live tasks of `online_steady`, which is also the equilibrium of its
/// arrivals (rate = tasks × departure probability). At 10.4 unit tasks
/// per resource the threshold 1.2·W/n + 1 sits near 13.45, half way
/// between integer loads, so the population's small drift never moves
/// it across one (at exactly 10 per resource it would flip around 13 and
/// the work per epoch with it).
const STEADY_TASKS: usize = 42_600;

/// A ready engine plus the pristine graph it started on.
struct Ready {
    base: Graph,
    sim: OnlineSim,
}

fn epoch_failed(e: impl std::fmt::Display) -> String {
    format!("epoch failed: {e}")
}

/// Record a span from `start` to now, if tracing.
fn span(log: &mut Option<SpanLog>, name: &'static str, start: u64) {
    if let Some(l) = log.as_mut() {
        l.push(name, start, l.now(), None);
    }
}

fn now(log: &Option<SpanLog>) -> u64 {
    log.as_ref().map_or(0, SpanLog::now)
}

/// Generate the graph, populate, warm up. Returns the engine and the
/// graph-generation seconds; a traced run gets a span per stage.
fn setup(
    scenario: Scenario,
    seed: u64,
    shards: usize,
    log: &mut Option<SpanLog>,
) -> Result<(Ready, f64), String> {
    let root_start = now(log);
    let t = Instant::now();
    let mut rng = SmallRng::seed_from_u64(trial_seed(seed, 0x6EA9));
    let tag = match scenario {
        Scenario::Steady => 0x57EA,
        Scenario::Churn => 0xC4A2,
    };
    let base =
        random_regular(RESOURCES, 8, &mut rng).map_err(|e| format!("random_regular: {e}"))?;
    let generate_s = t.elapsed().as_secs_f64();
    span(log, "graphs.generate", root_start);

    let sim_seed = trial_seed(seed, tag);
    let start = now(log);
    let mut sim = match scenario {
        Scenario::Steady => {
            let run = SimConfig {
                name: scenario.name().into(),
                seed: sim_seed,
                arrivals: ArrivalProcess::Poisson { rate: STEADY_TASKS as f64 * 0.001 },
                departure_prob: 0.001,
                shards,
                ..Default::default()
            };
            // Epoch 0 lands the whole population in one batch and
            // balances it.
            let fill = SimConfig {
                arrivals: ArrivalProcess::Batched { size: STEADY_TASKS, every: u64::MAX },
                departure_prob: 0.0,
                rounds_per_epoch: 1000,
                ..run.clone()
            };
            let mut sim = OnlineSim::new(base.clone(), fill);
            sim.try_run_epoch().map_err(epoch_failed)?;
            sim.reconfigure(run).map_err(|e| format!("reconfigure: {e}"))?;
            sim
        }
        Scenario::Churn => {
            let rack = (RESOURCES / 16) as u32;
            let domains = (0..16u32)
                .map(|d| DomainSpec::new(format!("rack{d}"), d * rack, (d + 1) * rack))
                .collect();
            let cfg = SimConfig {
                name: scenario.name().into(),
                seed: sim_seed,
                arrivals: ArrivalProcess::Bursty {
                    base: 500.0,
                    burst: 5000.0,
                    period: 50,
                    burst_len: 2,
                },
                arrival_placement: ArrivalPlacement::Adaptive { spread: 512 },
                arrival_weights: ArrivalWeights::ParetoTruncated { alpha: 0.5, cap: 32.0 },
                departure_prob: 0.05,
                churn: ChurnProcess {
                    random_down: 0.2,
                    random_up: 0.2,
                    domains,
                    domain_outage: 0.05,
                    outage: OutageDuration { alpha: 1.5, min_epochs: 2, max_epochs: 64 },
                    ..Default::default()
                },
                admission: AdmissionPolicy::LoadShed { max_mean_load: 16.0 },
                tenants: vec![
                    TenantSpec::new("tight", ThresholdPolicy::AboveAverage { epsilon: 0.1 }, 1.0),
                    TenantSpec::new("loose", ThresholdPolicy::AboveAverage { epsilon: 0.5 }, 1.0),
                ],
                shards,
                ..Default::default()
            };
            OnlineSim::new(base.clone(), cfg)
        }
    };
    span(log, "online.populate", start);
    let start = now(log);
    for _ in 0..scenario.warmup_epochs() {
        sim.try_run_epoch().map_err(epoch_failed)?;
    }
    span(log, "online.warmup", start);
    Ok((Ready { base, sim }, generate_s))
}

/// Phase timers the engine's obs registry keeps, as span names.
const PHASES: [(&str, &str); 4] = [
    ("epoch.churn_ns", "engine.churn"),
    ("epoch.arrivals_ns", "engine.arrivals"),
    ("epoch.rebalance_ns", "engine.rebalance"),
    ("epoch.record_ns", "engine.record"),
];

/// Total nanoseconds the engine's registry holds for each phase.
fn phase_totals(sim: &OnlineSim) -> [u64; 4] {
    let report = sim.obs_report().expect("obs is on in traced runs");
    PHASES.map(|(key, _)| report.timings.get(key).map_or(0, |t| t.total_ns))
}

/// Median milliseconds of `reps` calls of `f`, each wrapped in a span.
fn time_calls<T>(
    log: &mut SpanLog,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut ms = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = log.now();
        let t = Instant::now();
        last = Some(f());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        log.push(name, start, log.now(), None);
    }
    (stats::median(&ms), last.expect("reps >= 1"))
}

fn json_of(r: &EpochRecord) -> Result<String, String> {
    serde_json::to_string(r).map_err(|e| format!("EpochRecord does not serialize: {e}"))
}

pub fn run(opts: &Opts, scenario: Scenario) -> Result<Outcome, String> {
    let shards = rayon::current_num_threads();
    let mut checks = Vec::new();
    let mut setup_log = opts.trace.then(|| SpanLog::new(Instant::now()));
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let t = Instant::now();
        let (r, gen) = setup(scenario, opts.seed, shards, &mut setup_log)?;
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(gen);
        ready = Some(r);
    }
    let Ready { base, mut sim } = ready.expect("at least one set-up");
    let first = sim.records().len();
    let s0: SimSnapshot = sim.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;

    // Timed phase.
    if opts.trace {
        sim.enable_obs();
    }
    let origin = Instant::now();
    let mut log = opts.trace.then(|| SpanLog::new(origin));
    let mut epoch_ms = Vec::new();
    let mut seen = [0u64; 4];
    let mut peak_rss_mb = 0.0;
    loop {
        let start = now(&log);
        let t = Instant::now();
        sim.try_run_epoch().map_err(epoch_failed)?;
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        // The engine keeps every `EpochRecord`, so its memory grows with
        // the epochs run: the high-water mark is read at a fixed epoch
        // count, or a faster engine would read as a larger one. The
        // checkpoint `s0` the gate replays from is live by then and so
        // part of the figure.
        if epoch_ms.len() == scenario.min_epochs() {
            peak_rss_mb = crate::peak_rss_mb()?;
        }
        if let Some(l) = log.as_mut() {
            let end = l.now();
            let id = l.push("online.run_epoch", start, end, None);
            // The registry's phase timers become the epoch's children,
            // laid end to end from its start.
            let totals = phase_totals(&sim);
            let mut at = start;
            for (k, &(_, name)) in PHASES.iter().enumerate() {
                let d = totals[k] - seen[k];
                l.push(name, at, (at + d).min(end), Some(id));
                at = (at + d).min(end);
            }
            seen = totals;
        }
        if epoch_ms.len() >= scenario.min_epochs() && origin.elapsed().as_secs_f64() >= opts.seconds
        {
            break;
        }
    }
    let records: Vec<EpochRecord> = sim.records()[first..].to_vec();
    let epochs = records.len();
    let mut ops = Tally::default();
    ops.record_many(epochs as u64, 0);

    // Gate: replay the first epochs from the checkpoint with obs the
    // other way round; the records must match byte for byte. A traced run
    // also replays with obs on, interleaved epoch by epoch, so the trace
    // overhead compares two restored engines rather than a restored one
    // with the original.
    let gate = scenario.gate_epochs();
    let restore = |snap: SimSnapshot, obs: bool| -> Result<OnlineSim, String> {
        let mut sim =
            OnlineSim::restore(snap, base.clone()).map_err(|e| format!("restore: {e}"))?;
        if obs {
            sim.enable_obs();
        }
        Ok(sim)
    };
    let mut twin = if opts.trace { Some(restore(s0.clone(), true)?) } else { None };
    let mut replay = restore(s0, !opts.trace)?;
    let mut replay_ms = [0.0f64; 2]; // [obs off, obs on]
    for k in 0..gate {
        let mut pair = [(Some(&mut replay), !opts.trace), (twin.as_mut(), true)];
        // Alternate which engine goes first, so neither gains from order.
        pair.rotate_left(k % 2);
        for (engine, obs) in pair {
            if let Some(engine) = engine {
                let t = Instant::now();
                engine.try_run_epoch().map_err(epoch_failed)?;
                replay_ms[obs as usize] += t.elapsed().as_secs_f64();
            }
        }
    }
    for (k, (a, b)) in records.iter().zip(replay.records()).take(gate).enumerate() {
        if json_of(a)? != json_of(b)? {
            checks.push(format!(
                "epoch {k} of the timed phase differs between obs-on and obs-off runs"
            ));
            break;
        }
    }
    drop((replay, twin));

    // Deterministic outputs over the first min_epochs epochs.
    let prefix = &records[..scenario.min_epochs()];
    let mean_of = |f: &dyn Fn(&EpochRecord) -> f64| stats::mean(prefix.iter().map(f));
    let mut shed = Tally::default();
    for r in prefix {
        shed.record_many(r.arrivals, r.rejected);
    }
    let mut lines = String::new();
    for r in prefix {
        lines.push_str(&json_of(r)?);
        lines.push('\n');
    }
    let record_digest = digest(lines.as_bytes());
    checks.extend(crate::check_repeat(opts, scenario.name(), record_digest));
    let rounds_mean = mean_of(&|r| r.rebalance_rounds as f64);
    let notes = vec![format!(
        "{}: {epochs} epochs timed, live tasks {} -> {}, failed_frac {} (shed {} of {} offered \
         arrivals over the first {} epochs), record digest {record_digest:016x}",
        scenario.name(),
        records[0].live_tasks,
        records[epochs - 1].live_tasks,
        shed.failed_frac(),
        shed.failed,
        shed.attempted,
        prefix.len()
    )];

    let mut metrics = Metrics::default();
    if !opts.trace {
        let mut sorted = epoch_ms.clone();
        sorted.sort_by(f64::total_cmp);
        if !stats::tail_is_supported(sorted.len(), 0.9) {
            return Err(format!("{} epochs are too few for a p90", sorted.len()));
        }
        metrics.put("setup_s", stats::median(&setup_s));
        let batch = scenario.rate_batch();
        let batch_s: Vec<f64> =
            epoch_ms.chunks_exact(batch).map(|c| c.iter().sum::<f64>() / 1e3).collect();
        metrics.put("ops_per_s", stats::median_rate(&batch_s, batch as f64));
        metrics.put("op_ms_p50", stats::percentile(&sorted, 0.5));
        metrics.put("op_ms_p90", stats::percentile(&sorted, 0.9));
        metrics.put("rounds_mean", rounds_mean);
        metrics.put("peak_rss_mb", peak_rss_mb);
        metrics.put("served_frac", shed.served_frac());
        return Ok(Outcome {
            ops,
            check_failures: checks,
            metrics,
            notes,
            spans: None,
            setup_spans: None,
        });
    }

    // Traced run: engine phases and counts, shard phases, replays.
    let mut log = log.expect("traced run keeps a log");
    let report = sim.obs_report().expect("obs is on in traced runs");
    let per_epoch_ms = |key: &str| {
        report.timings.get(key).map_or(0.0, |t| t.total_ns as f64 / 1e6) / epochs as f64
    };
    metrics.put("graphs.generate_s", stats::median(&generate_s));
    metrics.put("engine.churn_ms", per_epoch_ms("epoch.churn_ns"));
    metrics.put("engine.arrivals_ms", per_epoch_ms("epoch.arrivals_ns"));
    metrics.put("engine.rebalance_ms", per_epoch_ms("epoch.rebalance_ns"));
    metrics.put("engine.record_ms", per_epoch_ms("epoch.record_ns"));
    metrics.put("engine.arrivals", mean_of(&|r| r.arrivals as f64));
    metrics.put("engine.departures", mean_of(&|r| r.departures as f64));
    metrics.put("engine.drained", mean_of(&|r| r.drained as f64));
    metrics.put("engine.migrations", mean_of(&|r| r.migrations as f64));
    metrics.put("engine.rebalance_rounds", rounds_mean);
    metrics.put("engine.overload_frac_mean", mean_of(&|r| r.overload_fraction));
    metrics.put("shard.eject_walk_ms", per_epoch_ms("shard.eject_walk_ns"));
    metrics.put("shard.route_ms", per_epoch_ms("shard.route_ns"));
    metrics.put("shard.apply_ms", per_epoch_ms("shard.apply_ns"));
    metrics.put(
        "shard.cross_shard_handoffs",
        report.exec.get("shard.cross_shard_handoffs").copied().unwrap_or(0) as f64 / epochs as f64,
    );

    // Replays on the live state the last epoch left.
    let last = records.last().expect("at least one timed epoch");
    let (checkpoint_ms, snap) = time_calls(&mut log, "snapshot.checkpoint", 3, || sim.checkpoint());
    let snap = snap.map_err(|e| format!("checkpoint: {e}"))?;
    let tenants = TenantSet::new(snap.config.tenants.clone());
    let n_active = sim.graph().num_active();
    let (ms, violations) = time_calls(&mut log, "tenants.violations", 5, || {
        tenants.violations(&snap.stacks, &snap.weights, &snap.tenant_of, n_active)
    });
    metrics.put("tenants.violations_ms", ms);
    if violations != last.tenant_violations {
        checks.push("replayed tenant violations differ from the last record".into());
    }
    let (ms, _) =
        time_calls(&mut log, "core.live_w_max", 5, || live_w_max(&snap.stacks, &snap.weights));
    metrics.put("core.live_w_max_ms", ms);
    let (ms, potential) = time_calls(&mut log, "core.total_potential", 5, || {
        total_potential(&snap.stacks, last.threshold, &snap.weights)
    });
    metrics.put("core.total_potential_ms", ms);
    if potential.to_bits() != last.potential.to_bits() {
        checks.push("replayed potential differs from the last record".into());
    }
    let (ms, max) = time_calls(&mut log, "core.max_load", 5, || max_load(&snap.stacks));
    metrics.put("core.max_load_ms", ms);
    if max.to_bits() != last.max_load.to_bits() {
        checks.push("replayed max load differs from the last record".into());
    }
    metrics.put("snapshot.checkpoint_ms", checkpoint_ms);
    layers::probe(&base, opts.seed, &mut metrics);
    metrics.put("trace.overhead_frac", replay_ms[1] / replay_ms[0] - 1.0);
    metrics.put("failed_frac", shed.failed_frac());
    Ok(Outcome {
        ops,
        check_failures: checks,
        metrics,
        notes,
        spans: Some(log),
        setup_spans: setup_log,
    })
}
