//! Tests of the benchmark's own helpers: the percentile rule, the
//! quartile spread, failure accounting and span self time.

use std::time::Instant;

use perfbench::spans::SpanLog;
use perfbench::stats::{
    median, median_rate, percentile, quartile_spread, quartiles, samples_beyond, tail_is_supported,
    Tally, MIN_TAIL_SAMPLES,
};

#[test]
fn nearest_rank_percentiles() {
    let s: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&s, 0.5), 50.0);
    assert_eq!(percentile(&s, 0.9), 90.0);
    assert_eq!(percentile(&s, 0.99), 99.0);
    assert_eq!(percentile(&s, 1.0), 100.0);
    assert_eq!(percentile(&[7.0], 0.5), 7.0);
    // Rank rounds up: the p50 of 5 samples is the 3rd.
    assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_TAIL_SAMPLES, 10);
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert!(tail_is_supported(100, 0.9));
    assert!(!tail_is_supported(99, 0.9));
    assert!(!tail_is_supported(999, 0.99));
    assert!(tail_is_supported(1000, 0.99));
    assert_eq!(samples_beyond(0, 0.5), 0);
    assert!(tail_is_supported(20, 0.5));
    assert!(!tail_is_supported(19, 0.5));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's statistics.quantiles(data, n=4).
    let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
    assert_eq!(quartiles(&data), [1.75, 3.5, 5.25]);
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles(&[4.0]), [4.0, 4.0, 4.0]);
}

#[test]
fn quartile_spread_is_relative_to_the_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(median(&ten), 5.5);
    assert!((quartile_spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    // Scale-free: multiplying every value leaves the spread alone.
    let scaled: Vec<f64> = ten.iter().map(|v| v * 1000.0).collect();
    assert!((quartile_spread(&scaled) - quartile_spread(&ten)).abs() < 1e-12);
    assert_eq!(quartile_spread(&[2.0; 10]), 0.0);
    assert_eq!(quartile_spread(&[0.0; 4]), 0.0);
}

#[test]
fn failed_frac_counts_failures_against_attempts() {
    let mut t = Tally::default();
    assert_eq!(t.failed_frac(), 0.0, "nothing attempted, nothing failed");
    // One-shot: a trial that ends unbalanced is a failure.
    for balanced in [true, true, false, true] {
        t.record(balanced);
    }
    assert_eq!((t.attempted, t.failed), (4, 1));
    assert_eq!(t.failed_frac(), 0.25);
    // Online: offered arrivals, of which admission shed some.
    let mut shed = Tally::default();
    shed.record_many(2000, 300);
    shed.record_many(1000, 0);
    assert_eq!((shed.attempted, shed.failed), (3000, 300));
    assert_eq!(shed.failed_frac(), 0.1);
    assert_eq!(shed.served_frac(), 0.9);
    assert_eq!(Tally::default().served_frac(), 1.0);
}

#[test]
#[should_panic(expected = "failures out of")]
fn more_failures_than_attempts_is_rejected() {
    Tally::default().record_many(1, 2);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let mut log = SpanLog::new(Instant::now());
    let root = log.push("root", 0, 100, None);
    // Two overlapping children (parallel work) cover [10, 60).
    log.push("child", 10, 50, Some(root));
    log.push("child", 20, 60, Some(root));
    // A child reaching past the parent counts only inside it.
    log.push("late", 90, 120, Some(root));
    let rows = log.self_times();
    let row = |name: &str| rows.iter().find(|r| r.name == name).expect("row present").clone();
    assert_eq!(row("root").self_ns, 100 - 50 - 10);
    assert_eq!(row("child").count, 2);
    assert_eq!(row("child").self_ns, 80);
    assert_eq!(row("late").self_ns, 30);
    assert_eq!(rows[0].name, "child", "largest self time first");
}

#[test]
fn appended_logs_keep_their_tree() {
    let origin = Instant::now();
    let mut outer = SpanLog::new(origin);
    let fanout = outer.push("fanout", 0, 50, None);
    let mut inner = SpanLog::new(origin);
    let trial = inner.push("trial", 5, 45, None);
    inner.push("step", 10, 40, Some(trial));
    outer.append(inner, Some(fanout));
    let spans = outer.spans();
    assert_eq!(spans[1].parent, Some(fanout));
    assert_eq!(spans[2].parent, Some(1));
    let rows = outer.self_times();
    let self_ns = |name: &str| rows.iter().find(|r| r.name == name).expect("row present").self_ns;
    assert_eq!(self_ns("trial"), 10);
    assert_eq!(self_ns("fanout"), 10);
    assert!(outer.to_json().starts_with("[{\"name\":\"fanout\""));
}

#[test]
fn median_rate_ignores_a_slow_minority_of_batches() {
    // Ten ops per batch; two batches hit by a stall.
    let batch_s = [0.1, 0.1, 0.5, 0.1, 0.1, 0.1, 0.4];
    assert_eq!(median_rate(&batch_s, 10.0), 100.0);
}
