//! The engine's *state* half: everything an online run owns, with the
//! event-application primitives that mutate it — no scheduling.
//!
//! [`SimState`] bundles the churn overlay, its CSR walk snapshot, the
//! per-resource stacks, and the task tables (weights, tenant indices,
//! recycled id slots). The *scheduler* half — the epoch loop in
//! [`crate::engine`] that decides **when** churn, departures, arrivals,
//! and the rebalancing pass run, and which engine runs the pass — calls
//! into these primitives. The split is what makes sharding possible: the
//! scheduler can hand the stacks to the parallel
//! [`crate::shard::ShardedEngine`] (or a sequential `tlb-core` stepper)
//! without either engine knowing how the state is stored between epochs.
//!
//! ## Cached aggregates
//!
//! An epoch's cost follows its events, not its live tasks, because the
//! state keeps two aggregates in step with every event instead of
//! rescanning the tasks:
//!
//! * each stack's load (inside [`ResourceStack`]), so the O(n)
//!   resource-level scans (total weight, max load, overloaded count,
//!   single-tenant violations) read n contiguous floats;
//! * the live `w_max` with its multiplicity. `SimState::admit` raises
//!   it or bumps the count, a departing max-weight task lowers the
//!   count, and one O(live) rescan runs only when the last max-weight
//!   task leaves, and after a restore.
//!
//! Both are pure functions of `(stacks, weights)`, so a checkpoint needs
//! neither and a restored run recomputes them bit for bit. The `w_max`
//! count relies on every live id sitting on exactly one stack, which is
//! why a restore rejects task tables that do not partition the id space.
//! Churn drains and rebalancing move tasks between stacks but leave the
//! live set, and so `w_max`, unchanged.

use rand::Rng;
use rand_distr::{Distribution, Geometric};
use tlb_core::stack::ResourceStack;
use tlb_core::task::TaskId;
use tlb_graphs::{DynamicGraph, Graph, NodeId};

use crate::arrivals::ArrivalPlacement;
use crate::churn::ChurnEvent;
use crate::domains::DomainSpec;

/// All state an online simulation owns between epochs (see the module
/// docs for the state/scheduler split).
#[derive(Debug, Clone)]
pub struct SimState {
    /// The churn overlay.
    pub(crate) dg: DynamicGraph,
    /// CSR snapshot of the effective graph the walk kernels use;
    /// refreshed whenever churn changes the topology.
    pub(crate) walk_graph: Graph,
    /// Per-resource stacks (index = resource id).
    pub(crate) stacks: Vec<ResourceStack>,
    /// Weight slot per task id; slots of departed tasks are recycled via
    /// `free_ids`, so memory tracks the live population, not the arrival
    /// total.
    pub(crate) weights: Vec<f64>,
    /// Tenant index per task id (parallel to `weights`).
    pub(crate) tenant_of: Vec<u16>,
    pub(crate) free_ids: Vec<TaskId>,
    pub(crate) live: usize,
    /// Reused per-epoch buffer for departure draws.
    pub(crate) departed: Vec<TaskId>,
    /// Per failure domain (index = position in the config's domain
    /// list): the epoch at whose start the domain recovers, or 0 when
    /// the domain is healthy. Non-RNG persistent state — it travels in
    /// the snapshot so a restored run replays the same recoveries.
    pub(crate) domain_down_until: Vec<u64>,
    /// Per-tenant admission token balances (token-bucket policy only;
    /// empty otherwise). Snapshot state, like `domain_down_until`.
    pub(crate) admission_tokens: Vec<f64>,
    /// Largest live task weight (0 when empty) — a cached aggregate
    /// (see the module docs).
    w_max: f64,
    /// How many live tasks weigh exactly `w_max`.
    w_max_count: usize,
}

impl SimState {
    /// Empty state over `base`: all resources active, no tasks.
    pub(crate) fn new(base: Graph) -> Self {
        let n = base.num_nodes();
        let dg = DynamicGraph::new(base);
        let walk_graph = dg.snapshot();
        SimState {
            dg,
            walk_graph,
            stacks: vec![ResourceStack::new(); n],
            weights: Vec::new(),
            tenant_of: Vec::new(),
            free_ids: Vec::new(),
            live: 0,
            departed: Vec::new(),
            domain_down_until: Vec::new(),
            admission_tokens: Vec::new(),
            w_max: 0.0,
            w_max_count: 0,
        }
    }

    /// Recompute the cached `w_max` and its multiplicity from the stacks
    /// — the one O(live) scan of the cache. Call after replacing the
    /// stacks or weights wholesale (a restore).
    pub(crate) fn rescan_w_max(&mut self) {
        let (mut w_max, mut count) = (0.0, 0);
        for &t in self.stacks.iter().flat_map(|s| s.tasks()) {
            let w = self.weights[t as usize];
            if w > w_max {
                (w_max, count) = (w, 1);
            } else if w == w_max {
                count += 1;
            }
        }
        (self.w_max, self.w_max_count) = (w_max, count);
    }

    /// Re-snapshot the walk graph after churn, compacting the overlay
    /// first once enough edge deltas accumulated.
    pub(crate) fn refresh_walk_graph(&mut self, compact_after_ops: usize) {
        if self.dg.delta_ops() >= compact_after_ops {
            self.dg.compact();
        }
        self.walk_graph = self.dg.snapshot();
    }

    /// Apply one churn event. Deactivating a resource drains its tasks to
    /// uniformly random surviving resources (the orchestrator's forced
    /// migration — these do not count as protocol migrations). Returns
    /// the number of drained tasks. Deactivation of the last active
    /// resource is skipped: the system never loses all capacity.
    pub(crate) fn apply_event<R: Rng + ?Sized>(
        &mut self,
        ev: ChurnEvent,
        rng: &mut R,
        topology_changed: &mut bool,
    ) -> u64 {
        match ev {
            ChurnEvent::Deactivate(v) => self.deactivate_one(v, rng, topology_changed),
            ChurnEvent::Activate(v) => {
                if self.dg.activate(v) {
                    *topology_changed = true;
                }
                0
            }
            ChurnEvent::DeactivateRange { from, to } => {
                // Take the whole rack down before re-placing anything, so
                // no task is drained onto a sibling that leaves in the
                // same event (and then drained again).
                let mut orphans: Vec<TaskId> = Vec::new();
                for v in from..to {
                    if let Some(stack) = self.deactivate_collect(v, topology_changed) {
                        orphans.extend_from_slice(stack.tasks());
                    }
                }
                self.place_orphans(&orphans, rng)
            }
            ChurnEvent::ActivateRange { from, to } => {
                for v in from..to {
                    if self.dg.activate(v) {
                        *topology_changed = true;
                    }
                }
                0
            }
            ChurnEvent::AddEdge(u, v) => {
                if self.dg.add_edge(u, v).expect("scripted edge must be valid") {
                    *topology_changed = true;
                }
                0
            }
            ChurnEvent::RemoveEdge(u, v) => {
                if self.dg.remove_edge(u, v).expect("scripted edge must be valid") {
                    *topology_changed = true;
                }
                0
            }
            ChurnEvent::DomainOutage { .. } => {
                // The scheduler resolves this against the config's domain
                // list (it owns the recovery deadlines) and applies the
                // range deactivation via `domain_outage` below.
                unreachable!("DomainOutage is resolved by the scheduler")
            }
        }
    }

    /// Take failure domain `d` down until epoch `until`: record the
    /// recovery deadline (extending any outage already in force) and
    /// drain the whole range. Returns the number of drained tasks.
    pub(crate) fn domain_outage<R: Rng + ?Sized>(
        &mut self,
        domains: &[DomainSpec],
        d: usize,
        until: u64,
        rng: &mut R,
        topology_changed: &mut bool,
    ) -> u64 {
        self.domain_down_until[d] = self.domain_down_until[d].max(until);
        let DomainSpec { from, to, .. } = domains[d];
        self.apply_event(ChurnEvent::DeactivateRange { from, to }, rng, topology_changed)
    }

    /// Recover every domain whose outage deadline has arrived:
    /// reactivate the whole range (no RNG) and clear the deadline.
    /// Returns the number of domains recovered.
    pub(crate) fn recover_due_domains(
        &mut self,
        domains: &[DomainSpec],
        epoch: u64,
        topology_changed: &mut bool,
    ) -> u64 {
        let mut recovered = 0;
        for (deadline, spec) in self.domain_down_until.iter_mut().zip(domains) {
            if *deadline != 0 && *deadline <= epoch {
                *deadline = 0;
                recovered += 1;
                for v in spec.from..spec.to {
                    if self.dg.activate(v) {
                        *topology_changed = true;
                    }
                }
            }
        }
        recovered
    }

    /// Whether `v` belongs to a domain currently down (deadline still in
    /// the future of `epoch`).
    pub(crate) fn in_down_domain(&self, domains: &[DomainSpec], v: NodeId, epoch: u64) -> bool {
        self.domain_down_until
            .iter()
            .zip(domains)
            .any(|(&until, dom)| until > epoch && dom.contains(v))
    }

    /// Total stacked load inside domain `d` (drained domains report 0).
    pub(crate) fn domain_load(&self, domains: &[DomainSpec], d: usize) -> f64 {
        let DomainSpec { from, to, .. } = domains[d];
        self.stacks[from as usize..to as usize].iter().map(ResourceStack::load).sum()
    }

    /// Per-resource loads (index = resource id) — captured before an
    /// epoch's churn, they are the adaptive adversary's view of last
    /// epoch's loads.
    pub(crate) fn loads(&self) -> Vec<f64> {
        self.stacks.iter().map(ResourceStack::load).collect()
    }

    fn deactivate_one<R: Rng + ?Sized>(
        &mut self,
        v: NodeId,
        rng: &mut R,
        topology_changed: &mut bool,
    ) -> u64 {
        match self.deactivate_collect(v, topology_changed) {
            Some(orphan) => {
                let tasks = orphan.tasks().to_vec();
                self.place_orphans(&tasks, rng)
            }
            None => 0,
        }
    }

    /// Deactivate `v` (unless it is the last active resource) and take
    /// its stack without re-placing the tasks yet.
    fn deactivate_collect(
        &mut self,
        v: NodeId,
        topology_changed: &mut bool,
    ) -> Option<ResourceStack> {
        if !self.dg.is_active(v) || self.dg.num_active() <= 1 {
            return None;
        }
        self.dg.deactivate(v);
        *topology_changed = true;
        Some(std::mem::take(&mut self.stacks[v as usize]))
    }

    /// Re-place drained tasks on uniformly random surviving resources;
    /// returns how many were placed.
    fn place_orphans<R: Rng + ?Sized>(&mut self, orphans: &[TaskId], rng: &mut R) -> u64 {
        if orphans.is_empty() {
            return 0;
        }
        let survivors = self.active_ids();
        for &t in orphans {
            let dest = survivors[rng.gen_range(0..survivors.len())];
            self.stacks[dest as usize].push(t, self.weights[t as usize]);
        }
        orphans.len() as u64
    }

    /// Every live task departs independently with probability `p`;
    /// freed id slots are recycled. Returns the departure count.
    ///
    /// Instead of one coin per task, a geometric skip walks the task
    /// positions concatenated over the stacks in resource order
    /// (bottom-to-top within a stack): the gap before each departure is
    /// `Geometric(p)`, the failures before the first success of those
    /// same coins. That is the same law in O(n + departures) time and
    /// `departures + 1` draws. `p = 0` and an empty system draw nothing.
    pub(crate) fn depart_bernoulli<R: Rng + ?Sized>(&mut self, p: f64, rng: &mut R) -> u64 {
        if p <= 0.0 || self.live == 0 {
            return 0;
        }
        let gap = Geometric::new(p).expect("departure_prob is validated to [0, 1)");
        let live = self.live as u64;
        self.departed.clear();
        let mut positions = Vec::new();
        // Global position of the next departure, and of the current
        // stack's bottom task.
        let mut next = gap.sample(rng);
        let mut base = 0u64;
        for stack in self.stacks.iter_mut() {
            if next >= live {
                break;
            }
            let top = base + stack.num_tasks() as u64;
            positions.clear();
            while next < top {
                positions.push((next - base) as usize);
                next = next.saturating_add(1).saturating_add(gap.sample(rng));
            }
            stack.remove_positions_into(&positions, &self.weights, &mut self.departed);
            base = top;
        }
        for &t in &self.departed {
            if self.weights[t as usize] == self.w_max {
                self.w_max_count -= 1;
            }
        }
        let departures = self.departed.len() as u64;
        self.live -= self.departed.len();
        self.free_ids.append(&mut self.departed);
        if self.w_max_count == 0 {
            self.rescan_w_max();
        }
        departures
    }

    /// Admit one arriving task: assign an id slot (recycled if possible),
    /// record its weight and tenant, stack it on `dest`, and fold its
    /// weight into the cached `w_max`.
    pub(crate) fn admit(&mut self, weight: f64, tenant: u16, dest: NodeId) {
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.weights[id as usize] = weight;
                self.tenant_of[id as usize] = tenant;
                id
            }
            None => {
                self.weights.push(weight);
                self.tenant_of.push(tenant);
                (self.weights.len() - 1) as TaskId
            }
        };
        self.stacks[dest as usize].push(id, weight);
        self.live += 1;
        if weight > self.w_max {
            (self.w_max, self.w_max_count) = (weight, 1);
        } else if weight == self.w_max {
            self.w_max_count += 1;
        }
    }

    pub(crate) fn active_ids(&self) -> Vec<NodeId> {
        (0..self.dg.num_nodes() as NodeId).filter(|&v| self.dg.is_active(v)).collect()
    }

    /// Pick the resource an arrival lands on under `placement`.
    pub(crate) fn arrival_destination<R: Rng + ?Sized>(
        &self,
        placement: ArrivalPlacement,
        active: &[NodeId],
        rng: &mut R,
    ) -> NodeId {
        match placement {
            ArrivalPlacement::Uniform => active[rng.gen_range(0..active.len())],
            ArrivalPlacement::HotSpot(v) => {
                if self.dg.is_active(v) {
                    v
                } else {
                    active[0]
                }
            }
            ArrivalPlacement::MostLoaded => active
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    self.stacks[a as usize]
                        .load()
                        .partial_cmp(&self.stacks[b as usize].load())
                        .expect("loads are finite")
                        // Ties go to the lowest id: prefer `a` on equal.
                        .then(b.cmp(&a))
                })
                .expect("at least one active resource"),
            ArrivalPlacement::Adaptive { .. } => {
                // Needs the pre-churn loads, which only the scheduler
                // holds; `OnlineSim` resolves it (`top_loaded`) before
                // calling into the state.
                unreachable!("adaptive placement is resolved by the scheduler")
            }
        }
    }

    /// Total live weight.
    pub(crate) fn total_weight(&self) -> f64 {
        self.stacks.iter().map(ResourceStack::load).sum()
    }

    /// Largest live task weight (0 when empty): the cached aggregate,
    /// O(1).
    pub(crate) fn live_w_max(&self) -> f64 {
        self.w_max
    }
}

/// Order resources by `load` descending, ties to the lowest id — the
/// one total order of every load-following placement.
fn by_load_desc(loads: &[f64], a: NodeId, b: NodeId) -> std::cmp::Ordering {
    loads[b as usize]
        .partial_cmp(&loads[a as usize])
        .expect("loads are finite")
        .then(a.cmp(&b))
}

/// The `k` heaviest of `candidates` under `loads`, heaviest first, ties
/// to the lowest id: a top-k selection plus a sort of the k, O(c + k log
/// k), instead of ranking every resource. Equals ranking all ids under
/// the same total order, keeping the candidates and taking the first k,
/// because filtering and sorting by a total order commute.
pub(crate) fn top_loaded(loads: &[f64], mut candidates: Vec<NodeId>, k: usize) -> Vec<NodeId> {
    if k < candidates.len() {
        candidates.select_nth_unstable_by(k, |&a, &b| by_load_desc(loads, a, b));
        candidates.truncate(k);
    }
    candidates.sort_unstable_by(|&a, &b| by_load_desc(loads, a, b));
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};
    use tlb_graphs::generators::complete;

    /// A state on `K_n` with unit tasks stacked `heights[r]` high on
    /// resource `r`, admitted bottom-to-top in resource order, so task id
    /// `i` sits at concatenated position `i`.
    fn stacked(heights: &[usize]) -> SimState {
        let mut state = SimState::new(complete(heights.len()));
        for (r, &h) in heights.iter().enumerate() {
            for _ in 0..h {
                state.admit(1.0, 0, r as NodeId);
            }
        }
        state
    }

    /// χ²(df, 0.999) upper bound, as in `tlb_walks::batch`.
    fn critical(df: usize) -> f64 {
        df as f64 + 4.0 * (2.0 * df as f64).sqrt() + 10.0
    }

    /// Skip-sampled departures follow the coin-per-task law: per epoch,
    /// the departure count is `Binomial(live, p)`, and every stack
    /// position — the bottom and top of each stack included — departs
    /// with the same frequency `p`. Stacks of height 0 and 1 sit between
    /// taller ones, so the skip crosses empty and single-task stacks.
    #[test]
    fn skip_sampled_departures_follow_the_bernoulli_law() {
        let heights = [0, 1, 5, 0, 0, 10, 3, 1, 20, 0];
        let base = stacked(&heights);
        let live = base.live;
        let p = 0.1;
        let trials = 20_000u64;
        let mut per_count = vec![0u64; live + 1];
        let mut per_task = vec![0u64; live];
        for trial in 0..trials {
            let mut state = base.clone();
            let mut rng = SmallRng::seed_from_u64(trial);
            let k = state.depart_bernoulli(p, &mut rng) as usize;
            per_count[k] += 1;
            assert_eq!(state.live, live - k);
            assert_eq!(state.free_ids.len(), k);
            for &t in &state.free_ids {
                per_task[t as usize] += 1;
            }
        }

        // Departure counts against Binomial(live, p), the tail pooled
        // where fewer than 5 are expected.
        let mut pmf = vec![(1.0 - p).powi(live as i32)];
        for k in 0..live {
            pmf.push(pmf[k] * (live - k) as f64 / (k + 1) as f64 * p / (1.0 - p));
        }
        let (mut stat, mut cells, mut tail_e, mut tail_c) = (0.0, 0usize, 0.0, 0u64);
        for (k, &prob) in pmf.iter().enumerate() {
            let e = prob * trials as f64;
            if e >= 5.0 {
                let c = per_count[k] as f64;
                stat += (c - e) * (c - e) / e;
                cells += 1;
            } else {
                tail_e += e;
                tail_c += per_count[k];
            }
        }
        stat += (tail_c as f64 - tail_e).powi(2) / tail_e;
        let df = cells;
        assert!(stat < critical(df), "departure counts: chi2 {stat:.2} (df {df})");

        // Every position departs with frequency p.
        let e = p * trials as f64;
        let stat: f64 = per_task.iter().map(|&c| (c as f64 - e).powi(2) / e).sum();
        let df = live - 1;
        assert!(stat < critical(df), "positions: chi2 {stat:.2} (df {df})");
        let sd = (trials as f64 * p * (1.0 - p)).sqrt();
        let mut first = 0;
        for &h in heights.iter().filter(|&&h| h > 0) {
            for pos in [first, first + h - 1] {
                let c = per_task[pos] as f64;
                assert!((c - e).abs() < 5.0 * sd, "stack edge at position {pos}: {c} vs {e}");
            }
            first += h;
        }
    }

    #[test]
    fn departures_draw_nothing_at_p_zero_or_when_empty() {
        for (mut state, p) in [(stacked(&[3, 0, 2]), 0.0), (stacked(&[0, 0]), 0.5)] {
            let before = state.stacks.clone();
            let mut rng = SmallRng::seed_from_u64(9);
            assert_eq!(state.depart_bernoulli(p, &mut rng), 0);
            assert_eq!(state.stacks, before);
            assert_eq!(rng.next_u64(), SmallRng::seed_from_u64(9).next_u64(), "a word was drawn");
        }
    }

    #[test]
    fn cached_w_max_tracks_admissions_and_departures() {
        let mut state = stacked(&[0, 0, 0]);
        assert_eq!(state.live_w_max(), 0.0);
        for (w, dest) in [(2.0, 0), (8.0, 1), (8.0, 2), (4.0, 2)] {
            state.admit(w, 0, dest);
        }
        assert_eq!((state.w_max, state.w_max_count), (8.0, 2));
        // Depart until empty, checking the cache against a rescan after
        // every draw; the last rescan lands on zero.
        let mut rng = SmallRng::seed_from_u64(1);
        while state.live > 0 {
            state.depart_bernoulli(0.5, &mut rng);
            let mut fresh = state.clone();
            fresh.rescan_w_max();
            assert_eq!((state.w_max, state.w_max_count), (fresh.w_max, fresh.w_max_count));
        }
        assert_eq!(state.live_w_max(), 0.0);
    }

    /// Small integer loads (many ties) on `n` resources, a random subset
    /// of which is active (at least one).
    fn tied_loads(rng: &mut SmallRng, n: usize) -> (Vec<f64>, Vec<NodeId>) {
        let loads: Vec<f64> = (0..n).map(|_| rng.gen_range(0..4u32) as f64).collect();
        let mut active: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.gen_bool(0.7)).collect();
        if active.is_empty() {
            active.push(rng.gen_range(0..n as NodeId));
        }
        (loads, active)
    }

    #[test]
    fn top_loaded_equals_the_filtered_full_ranking() {
        let mut rng = SmallRng::seed_from_u64(0x70F);
        for case in 0..300 {
            let n = rng.gen_range(1..40usize);
            let (loads, active) = tied_loads(&mut rng, n);
            let k = rng.gen_range(1..n + 3);
            // The reference: rank every id, keep the active, take k.
            let mut ranking: Vec<NodeId> = (0..n as NodeId).collect();
            ranking.sort_by(|&a, &b| by_load_desc(&loads, a, b));
            let expected: Vec<NodeId> =
                ranking.into_iter().filter(|v| active.contains(v)).take(k).collect();
            assert_eq!(top_loaded(&loads, active, k), expected, "case {case}");
        }
    }
}
