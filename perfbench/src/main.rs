//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oneshot|online_steady|online_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with no tracing; with
//! `--trace 1` they are the per-layer ones, and the run also writes its
//! spans and a self-time table under `.bench_out/`. Every run checks its
//! outputs (see `oneshot.rs` and `online.rs`) and exits non-zero if a
//! check fails. See `perfbench/README.md` for the workloads, metrics and
//! the predictions each per-layer metric carries.

mod layers;
mod oneshot;
mod online;

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::spans::{self_time_table, SpanLog};
use perfbench::stamp::{json_str, Stamp};
use perfbench::stats::Tally;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Command-line options.
#[derive(Debug)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Seconds the timed phase runs (at least; see each workload's
    /// minimum sample count).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Directory for trace output.
    pub out_dir: String,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out_dir: ".bench_out".into(),
    };
    let mut seen_seed = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => {
                opts.seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?;
                seen_seed = true;
            }
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => opts.out_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seen_seed {
        return Err("--seed is required".into());
    }
    Ok(opts)
}

/// End-to-end metrics (`--trace 0`), with units, as `BENCHMARK.json`
/// lists them. An "op" is a trial in `oneshot` and an epoch online.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("rounds_mean", "rounds"),
    ("peak_rss_mb", "MiB"),
    ("served_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with units, as `BENCHMARK.json`
/// lists them. Every workload reports all of them; a layer the workload
/// never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.generate_s", "s"),
    ("core.resource_d8.round_us_p50", "us"),
    ("core.resource_d8.rounds_per_trial", "rounds"),
    ("core.resource_d8.migrations_per_s", "1/s"),
    ("core.resource_d8.init_us", "us"),
    ("core.user_complete.round_us_p50", "us"),
    ("core.user_complete.rounds_per_trial", "rounds"),
    ("core.user_complete.migrations_per_s", "1/s"),
    ("core.user_complete.init_us", "us"),
    ("core.lazy_cube.round_us_p50", "us"),
    ("core.lazy_cube.rounds_per_trial", "rounds"),
    ("core.lazy_cube.migrations_per_s", "1/s"),
    ("core.lazy_cube.init_us", "us"),
    ("harness.busy_frac", "ratio"),
    ("harness.speedup_vs_sequential", "ratio"),
    ("rand.small_words_per_s", "1/s"),
    ("rand.counter_words_per_s", "1/s"),
    ("walks.counter_steps_per_s", "1/s"),
    ("engine.churn_ms", "ms"),
    ("engine.arrivals_ms", "ms"),
    ("engine.rebalance_ms", "ms"),
    ("engine.record_ms", "ms"),
    ("engine.arrivals", "count"),
    ("engine.departures", "count"),
    ("engine.drained", "count"),
    ("engine.migrations", "count"),
    ("engine.rebalance_rounds", "rounds"),
    ("engine.overload_frac_mean", "ratio"),
    ("shard.eject_walk_ms", "ms"),
    ("shard.route_ms", "ms"),
    ("shard.apply_ms", "ms"),
    ("shard.cross_shard_handoffs", "count"),
    ("tenants.violations_ms", "ms"),
    ("core.live_w_max_ms", "ms"),
    ("core.total_potential_ms", "ms"),
    ("core.max_load_ms", "ms"),
    ("snapshot.checkpoint_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.step_share", "ratio"),
    ("failed_frac", "ratio"),
];

/// Named metric values a workload measured.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Record one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    /// The `metrics` object for `spec`, in its order. A per-layer metric
    /// the workload did not measure reads 0; a missing end-to-end metric,
    /// a name outside `spec`, or a non-finite value is an error.
    fn to_json(&self, spec: &[(&str, &str)], missing_is_zero: bool) -> Result<String, String> {
        if let Some((name, _)) = self.values.iter().find(|(n, _)| !spec.iter().any(|(s, _)| s == n))
        {
            return Err(format!("metric {name} is not in the benchmark's list"));
        }
        let mut out = String::from("{");
        for (i, &(name, unit)) in spec.iter().enumerate() {
            let value = match self.values.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) => v,
                None if missing_is_zero => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// What a workload hands back to `run`.
pub struct Outcome {
    /// Operations timed and how many failed.
    pub ops: Tally,
    /// Correctness checks that failed (empty when all passed).
    pub check_failures: Vec<String>,
    /// End-to-end metrics (`--trace 0`) or per-layer ones (`--trace 1`).
    pub metrics: Metrics,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
    /// Spans of the timed phase (traced runs only).
    pub spans: Option<SpanLog>,
    /// Spans of set-up (traced runs only).
    pub setup_spans: Option<SpanLog>,
}

/// Peak resident set of the process in MiB (`VmHWM`). The workloads
/// read it before the checks allocate: `oneshot` right after its timed
/// phase, the online ones at a fixed epoch of it.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM line")?;
    Ok(kb / 1024.0)
}

/// FNV-1a 64 offset basis: the digest of no bytes.
const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64 digest of `bytes`, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01B3))
}

/// FNV-1a 64 digest of `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a(FNV_BASIS, bytes)
}

/// Digest of this benchmark's executable, read in small chunks so the
/// check adds next to nothing to the process's memory.
fn build_digest() -> std::io::Result<u64> {
    use std::io::Read as _;
    let mut file = std::fs::File::open(std::env::current_exe()?)?;
    let mut buf = [0u8; 1 << 16];
    let mut h = FNV_BASIS;
    loop {
        match file.read(&mut buf)? {
            0 => return Ok(h),
            n => h = fnv1a(h, &buf[..n]),
        }
    }
}

/// Cross-run determinism check: the first run of `(workload, seed)` by
/// this build records the digest of its deterministic outputs under the
/// output directory; every later run of that pair by the same build must
/// reproduce it. A rebuilt program (its executable differs) starts a new
/// record. Returns the failure, if any.
pub fn check_repeat(opts: &Opts, workload: &str, value: u64) -> Option<String> {
    let build = match build_digest() {
        Ok(build) => build,
        Err(e) => return Some(format!("cannot read the benchmark executable: {e}")),
    };
    let dir = format!("{}/digests", opts.out_dir);
    let path = format!("{dir}/{workload}-seed{}-build{build:016x}.txt", opts.seed);
    let now = format!("{value:016x}");
    match std::fs::read_to_string(&path) {
        Ok(before) if before.trim() != now => Some(format!(
            "deterministic outputs of seed {} changed between runs: digest {now}, {path} has {}",
            opts.seed,
            before.trim()
        )),
        Ok(_) => None,
        Err(_) => std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, &now))
            .err()
            .map(|e| format!("{path}: {e}")),
    }
}

fn run() -> Result<bool, String> {
    let opts = parse_args()?;
    // `oneshot` fans its trials out over one pool thread per CPU. The
    // online engine is sequential apart from its sharded rebalancing
    // pass, whose barrier makes every epoch wait for the slower of two
    // vCPUs: on a shared host that made the epoch rate swing by a
    // quarter between runs, and one shard was faster anyway. So the
    // online workloads run one pool thread and one shard (their records
    // are identical at every shard count). The pool reads its size once,
    // at first use, whatever the environment said.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let want = if opts.workload.starts_with("online_") { 1 } else { nproc };
    std::env::set_var("RAYON_NUM_THREADS", want.to_string());
    let threads = rayon::current_num_threads();
    if threads != want {
        return Err(format!("pool came up with {threads} threads, asked for {want}"));
    }
    let stamp = Stamp::collect(threads, threads);
    println!("stamp {}", stamp.to_json());

    let outcome = match opts.workload.as_str() {
        "oneshot" => oneshot::run(&opts)?,
        "online_steady" => online::run(&opts, online::Scenario::Steady)?,
        "online_churn" => online::run(&opts, online::Scenario::Churn)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected oneshot, online_steady or online_churn)"
            ))
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    if opts.trace {
        write_trace(&opts, &stamp, &outcome)?;
    }
    for failure in &outcome.check_failures {
        eprintln!("check failed: {failure}");
    }
    let correct = outcome.check_failures.is_empty();
    let metrics = if opts.trace {
        outcome.metrics.to_json(PER_LAYER, true)?
    } else {
        outcome.metrics.to_json(END_TO_END, false)?
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.ops.attempted, outcome.ops.failed, metrics
    );
    Ok(correct)
}

/// Write the spans (with the stamp) and the self-time table of a traced
/// run.
fn write_trace(opts: &Opts, stamp: &Stamp, outcome: &Outcome) -> Result<(), String> {
    let Some(spans) = &outcome.spans else { return Ok(()) };
    let table = self_time_table(&spans.self_times(), 15);
    println!("self time, timed phase ({}):\n{table}", opts.workload);
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("{}: {e}", opts.out_dir))?;
    let stem = format!("{}/trace-{}-seed{}", opts.out_dir, opts.workload, opts.seed);
    let setup = outcome.setup_spans.as_ref().map_or("[]".to_string(), SpanLog::to_json);
    let json = format!(
        "{{\"stamp\": {},\n\"setup\": {setup},\n\"measure\": {}}}\n",
        stamp.to_json(),
        spans.to_json()
    );
    std::fs::write(format!("{stem}.json"), json).map_err(|e| format!("{stem}.json: {e}"))?;
    std::fs::write(format!("{stem}.selftime.txt"), table)
        .map_err(|e| format!("{stem}.selftime.txt: {e}"))?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
