//! Snapshot format compatibility: a v1 checkpoint written before the
//! robustness layer existed (PR 7's `SNAPSHOT_VERSION = 1`) must keep
//! loading through the upgrade shim in [`SimSnapshot::from_json`].
//!
//! The fixture `fixtures/snapshot_v1.json` was generated by the v1
//! engine (epoch-12 checkpoint of the "steady" scenario on `K_16`,
//! seed 42, two tenants) and is checked in verbatim — regenerating it
//! with a current build would defeat the point of the test.

use tlb_core::mixed_protocol::Departure;
use tlb_graphs::generators::complete;
use tlb_sim::{
    AdmissionPolicy, BaselineRule, OnlineSim, RebalancePolicy, SimConfig, SimSnapshot,
    SNAPSHOT_VERSION,
};
use tlb_walks::WalkKind;

const V1_FIXTURE: &str = include_str!("fixtures/snapshot_v1.json");

#[test]
fn v1_fixture_upgrades_in_place() {
    let snap = SimSnapshot::from_json(V1_FIXTURE).expect("v1 snapshot loads through the shim");
    assert_eq!(snap.version, SNAPSHOT_VERSION);
    assert_eq!(snap.epoch, 12);
    assert_eq!(snap.config.name, "steady");
    assert_eq!(snap.config.seed, 42);

    // The added state defaults to "robustness features off" — exactly
    // what the v1 engine was running.
    assert!(snap.config.churn.domains.is_empty());
    assert_eq!(snap.config.churn.domain_outage, 0.0);
    assert_eq!(snap.config.admission, AdmissionPolicy::None);
    assert!(snap.domain_down_until.is_empty());
    assert!(snap.admission_tokens.is_empty());

    // A v1 engine admitted every offered arrival, so the upgraded
    // ledger mirrors the arrival total.
    assert_eq!(snap.summary.total_admitted, snap.summary.total_arrivals);
    assert_eq!(snap.summary.total_rejected, 0);
    assert!(snap.summary.tenant_admitted_tasks.is_empty());
    assert!(snap.summary.tenant_rejected_tasks.is_empty());
}

#[test]
fn v1_fixture_restores_and_keeps_running() {
    let snap = SimSnapshot::from_json(V1_FIXTURE).unwrap();
    let live_at_pause = snap.live;
    let mut sim = OnlineSim::restore(snap, complete(16)).expect("upgraded snapshot restores");
    assert_eq!(sim.epoch(), 12);
    assert_eq!(sim.live_tasks(), live_at_pause);

    // The resumed run keeps going (and stays deterministic) on the
    // current engine: same fixture, same continuation.
    let continue_run = |mut sim: OnlineSim| {
        for _ in 0..12 {
            sim.run_epoch();
        }
        sim.records().to_vec()
    };
    let a = continue_run(sim);
    sim = OnlineSim::restore(SimSnapshot::from_json(V1_FIXTURE).unwrap(), complete(16)).unwrap();
    let b = continue_run(sim);
    assert_eq!(a, b);
    assert_eq!(a.len(), 12);
    // Admission is off in the upgraded config: the new ledger fields
    // stay in the "admit everything" regime post-resume too.
    for r in &a {
        assert_eq!(r.arrivals, r.admitted);
        assert_eq!(r.rejected, 0);
    }
}

#[test]
fn unknown_versions_are_rejected_not_guessed() {
    let future = V1_FIXTURE.replacen("\"version\": 1", "\"version\": 3", 1);
    assert!(future.contains("\"version\": 3"), "fixture must carry a leading version field");
    let err = SimSnapshot::from_json(&future).unwrap_err().to_string();
    assert!(err.contains("version"), "unhelpful error: {err}");
}

#[test]
fn current_snapshots_still_round_trip_at_version_2() {
    let snap = SimSnapshot::from_json(V1_FIXTURE).unwrap();
    let json = snap.to_json().unwrap();
    assert!(json.contains("\"version\": 2"));
    let back = SimSnapshot::from_json(&json).unwrap();
    assert_eq!(back, snap);
}

// Hostile snapshots: each mutation class below used to be accepted by
// `restore` (or to panic inside it) and must now come back as `Err`.

/// Restore a mutated copy of the fixture and return the error message.
fn restore_err(mutate: impl FnOnce(&mut SimSnapshot)) -> String {
    let mut snap = SimSnapshot::from_json(V1_FIXTURE).unwrap();
    mutate(&mut snap);
    match OnlineSim::restore(snap, complete(16)) {
        Ok(_) => panic!("hostile snapshot was accepted"),
        Err(e) => e.to_string(),
    }
}

/// The id of some task that sits on a stack in the fixture.
fn a_stacked_task(snap: &SimSnapshot) -> usize {
    snap.stacks
        .iter()
        .flat_map(|s| s.tasks())
        .next()
        .copied()
        .expect("fixture has tasks") as usize
}

#[test]
fn restore_rejects_an_out_of_range_tenant_id() {
    let err = restore_err(|snap| {
        let t = a_stacked_task(snap);
        snap.tenant_of[t] = snap.config.tenants.len() as u16;
    });
    assert!(err.contains("tenant"), "unhelpful error: {err}");
}

#[test]
fn restore_rejects_non_positive_or_non_finite_stacked_weights() {
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let err = restore_err(|snap| {
            let t = a_stacked_task(snap);
            snap.weights[t] = bad;
        });
        assert!(err.contains("weight"), "unhelpful error for {bad}: {err}");
    }
}

#[test]
fn restore_rejects_a_zero_tenant_share() {
    let err = restore_err(|snap| snap.config.tenants[1].share = 0.0);
    assert!(err.contains("share"), "unhelpful error: {err}");
}

#[test]
fn restore_rejects_a_zero_arrival_rate() {
    let err = restore_err(|snap| {
        snap.config.arrivals = tlb_sim::ArrivalProcess::Poisson { rate: 0.0 };
    });
    assert!(err.contains("rate"), "unhelpful error: {err}");
}

/// Take the top task off the first non-empty stack, as if it had never
/// been stacked, and drop `live` to match. Returns its id.
fn unstack_one(snap: &mut SimSnapshot) -> u32 {
    let stack = snap.stacks.iter_mut().find(|s| !s.is_empty()).expect("fixture has tasks");
    let mut out = Vec::new();
    stack.remove_positions_into(&[stack.num_tasks() - 1], &snap.weights, &mut out);
    snap.live -= 1;
    out[0]
}

// Task-id tables whose counts add up but whose stacked and free ids do
// not partition the slot table. Each used to restore and then panic or
// corrupt a slot at the first admission.

#[test]
fn restore_rejects_an_out_of_range_free_id() {
    let err = restore_err(|snap| {
        unstack_one(snap);
        snap.free_ids.push(1_000_000);
    });
    assert!(err.contains("free id 1000000 outside"), "unhelpful error: {err}");
}

#[test]
fn restore_rejects_a_duplicate_free_id() {
    let err = restore_err(|snap| {
        let freed = unstack_one(snap);
        snap.free_ids.push(freed);
        unstack_one(snap);
        snap.free_ids.push(freed);
    });
    assert!(err.contains("listed twice"), "unhelpful error: {err}");
}

#[test]
fn restore_rejects_an_id_both_stacked_and_free() {
    let err = restore_err(|snap| {
        unstack_one(snap);
        let still_stacked = a_stacked_task(snap) as u32;
        snap.free_ids.push(still_stacked);
    });
    assert!(err.contains("also stacked"), "unhelpful error: {err}");
}

#[test]
fn restore_rejects_an_id_stacked_twice() {
    let err = restore_err(|snap| {
        let t = unstack_one(snap);
        let w = snap.weights[t as usize];
        unstack_one(snap);
        // The counts add up again, but `t` sits twice and the second
        // unstacked id nowhere.
        snap.stacks[0].push(t, w);
        snap.stacks[0].push(t, w);
        snap.live += 2;
    });
    assert!(err.contains("stacked twice"), "unhelpful error: {err}");
}

/// Rebalancing policies whose protocol parameters the sequential pass
/// cannot run (each used to be accepted and then panic in the next
/// epoch), with a word the error must name.
fn bad_protocol_policies() -> Vec<(RebalancePolicy, &'static str)> {
    let mixed = |alpha| RebalancePolicy::Mixed {
        departure: Departure::Bernoulli,
        alpha,
        walk: WalkKind::MaxDegree,
    };
    let baseline = |rule| RebalancePolicy::Baseline { rule };
    vec![
        (mixed(0.0), "alpha"),
        (mixed(-1.0), "alpha"),
        (mixed(f64::NAN), "alpha"),
        (mixed(f64::INFINITY), "alpha"),
        (baseline(BaselineRule::Greedy { d: 0 }), "choice"),
        (baseline(BaselineRule::OnePlusBeta { beta: 0.0 }), "beta"),
        (baseline(BaselineRule::OnePlusBeta { beta: 1.5 }), "beta"),
        (baseline(BaselineRule::SequentialThreshold { retries: 0 }), "retry"),
    ]
}

#[test]
fn restore_rejects_bad_protocol_parameters() {
    for (policy, needle) in bad_protocol_policies() {
        let err = restore_err(|snap| snap.config.rebalance = policy);
        assert!(err.contains(needle), "{policy:?}: unhelpful error: {err}");
    }
}

#[test]
fn reconfigure_rejects_bad_protocol_parameters() {
    let snap = SimSnapshot::from_json(V1_FIXTURE).unwrap();
    let cfg = snap.config.clone();
    let mut sim = OnlineSim::restore(snap, complete(16)).unwrap();
    for (policy, needle) in bad_protocol_policies() {
        let err = sim
            .reconfigure(SimConfig { rebalance: policy, ..cfg.clone() })
            .expect_err("a bad protocol parameter must be rejected");
        assert!(err.to_string().contains(needle), "{policy:?}: unhelpful error: {err}");
    }
    // The rejected swaps left the engine running its old config.
    sim.try_run_epoch().expect("epoch under the original config");
    // All-active departures never read alpha, so any alpha passes there.
    let all_active = RebalancePolicy::Mixed {
        departure: Departure::AllActive,
        alpha: 0.0,
        walk: WalkKind::Lazy,
    };
    sim.reconfigure(SimConfig { rebalance: all_active, ..cfg })
        .expect("alpha is unused");
    sim.try_run_epoch().expect("epoch under all-active departures");
}
