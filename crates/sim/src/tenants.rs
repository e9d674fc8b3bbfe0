//! Multi-tenant threshold SLOs.
//!
//! The paper's protocols share one global threshold. A multi-tenant
//! service instead promises each tenant class its own bound: tenant `c`
//! with policy `P_c` is *violated* on resource `r` when the tenant's own
//! load there exceeds `T_c = P_c(W_c, n_active, w_max_c)` — the threshold
//! the tenant's tasks would satisfy if balanced in isolation. The engine
//! rebalances globally (it does not see tenants) and reports per-tenant
//! violation counts per epoch, so tighter-policy tenants surface as the
//! first to degrade under pressure.

use serde::{Deserialize, Serialize};
use tlb_core::protocol;
use tlb_core::stack::ResourceStack;
use tlb_core::threshold::ThresholdPolicy;

/// One tenant class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Display name (report key).
    pub name: String,
    /// The tenant's SLO threshold policy.
    pub policy: ThresholdPolicy,
    /// Relative share of arriving tasks assigned to this tenant
    /// (normalized over all tenants; must be `> 0`).
    pub share: f64,
}

impl TenantSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, policy: ThresholdPolicy, share: f64) -> Self {
        TenantSpec { name: name.into(), policy, share }
    }
}

/// The tenant classes of a run, with cumulative shares for sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSet {
    specs: Vec<TenantSpec>,
    cumulative: Vec<f64>,
}

impl TenantSet {
    /// Check a tenant list: non-empty, every share positive and finite.
    ///
    /// # Errors
    /// Naming the first offending spec.
    pub fn validate_specs(specs: &[TenantSpec]) -> Result<(), String> {
        if specs.is_empty() {
            return Err("need at least one tenant".to_string());
        }
        match specs.iter().find(|s| !(s.share.is_finite() && s.share > 0.0)) {
            Some(s) => Err(format!("tenant {} has non-positive share {}", s.name, s.share)),
            None => Ok(()),
        }
    }

    /// Build from specs; shares are normalized.
    ///
    /// # Panics
    /// If [`validate_specs`](Self::validate_specs) rejects `specs`.
    pub fn new(specs: Vec<TenantSpec>) -> Self {
        if let Err(msg) = Self::validate_specs(&specs) {
            panic!("{msg}");
        }
        let total: f64 = specs.iter().map(|s| s.share).sum();
        let mut acc = 0.0;
        let cumulative = specs
            .iter()
            .map(|s| {
                acc += s.share / total;
                acc
            })
            .collect();
        TenantSet { specs, cumulative }
    }

    /// A single default tenant taking all traffic.
    pub fn single(policy: ThresholdPolicy) -> Self {
        TenantSet::new(vec![TenantSpec::new("default", policy, 1.0)])
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether there are no tenants (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The tenant specs.
    pub fn specs(&self) -> &[TenantSpec] {
        &self.specs
    }

    /// Tenant names in spec order.
    pub fn names(&self) -> Vec<String> {
        self.specs.iter().map(|s| s.name.clone()).collect()
    }

    /// Map a uniform draw `u ∈ [0, 1)` to a tenant index by share.
    pub fn pick(&self, u: f64) -> u16 {
        self.cumulative.iter().position(|&c| u < c).unwrap_or(self.specs.len() - 1) as u16
    }

    /// Count, for every tenant, the resources whose tenant-local load
    /// exceeds the tenant's own threshold. `weights` and `tenant_of` are
    /// indexed by task id; `n_active` is the denominator of the per-tenant
    /// averages.
    ///
    /// With one tenant, its tenant-local loads are the cached stack loads
    /// and its `W` their sum, so the count is O(n) once `w_max` is known
    /// (here one scan of the tasks finds it). With more tenants it is
    /// O(live + t·n): it visits every stacked task for its tenant.
    pub fn violations(
        &self,
        stacks: &[ResourceStack],
        weights: &[f64],
        tenant_of: &[u16],
        n_active: usize,
    ) -> Vec<u64> {
        // Only the single-tenant count reads the live `w_max`.
        let w_max = match self.specs.len() {
            1 => protocol::live_w_max(stacks, weights),
            _ => 0.0,
        };
        self.violations_with_w_max(stacks, weights, tenant_of, n_active, w_max)
    }

    /// [`violations`](Self::violations) given the live `w_max` (the
    /// largest stacked weight, which the online engine caches), so the
    /// single-tenant count skips the task scan. Equal to `violations`
    /// bit for bit whenever `w_max` is that maximum; with two or more
    /// tenants `w_max` is unused (each tenant has its own).
    pub(crate) fn violations_with_w_max(
        &self,
        stacks: &[ResourceStack],
        weights: &[f64],
        tenant_of: &[u16],
        n_active: usize,
        w_max: f64,
    ) -> Vec<u64> {
        if let [only] = self.specs.as_slice() {
            let total = stacks.iter().map(ResourceStack::load).sum();
            let loads = stacks.iter().map(ResourceStack::load);
            return vec![exceeding(only, total, n_active, w_max, loads)];
        }
        let t = self.specs.len();
        // Tenant-local load per (tenant, resource), plus per-tenant W and
        // w_max, in one pass over the stacked tasks.
        let mut load = vec![0.0f64; t * stacks.len()];
        let mut total = vec![0.0f64; t];
        let mut tenant_w_max = vec![0.0f64; t];
        for (r, stack) in stacks.iter().enumerate() {
            for &task in stack.tasks() {
                let c = tenant_of[task as usize] as usize;
                let w = weights[task as usize];
                load[c * stacks.len() + r] += w;
                total[c] += w;
                if w > tenant_w_max[c] {
                    tenant_w_max[c] = w;
                }
            }
        }
        let n = stacks.len();
        (0..t)
            .map(|c| {
                let loads = load[c * n..(c + 1) * n].iter().copied();
                exceeding(&self.specs[c], total[c], n_active, tenant_w_max[c], loads)
            })
            .collect()
    }
}

/// How many of `loads` exceed `spec`'s threshold at total weight `total`
/// and heaviest task `w_max` (none for an absent tenant or an empty
/// fleet).
fn exceeding(
    spec: &TenantSpec,
    total: f64,
    n_active: usize,
    w_max: f64,
    loads: impl Iterator<Item = f64>,
) -> u64 {
    if total <= 0.0 || n_active == 0 {
        return 0;
    }
    let threshold = spec.policy.value(total, n_active, w_max);
    loads.filter(|&l| l > threshold).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_normalize_and_pick_respects_boundaries() {
        let ts = TenantSet::new(vec![
            TenantSpec::new("a", ThresholdPolicy::Tight, 3.0),
            TenantSpec::new("b", ThresholdPolicy::Tight, 1.0),
        ]);
        assert_eq!(ts.pick(0.0), 0);
        assert_eq!(ts.pick(0.74), 0);
        assert_eq!(ts.pick(0.76), 1);
        assert_eq!(ts.pick(0.999_999), 1);
    }

    #[test]
    fn violations_count_per_tenant_overloads() {
        // Two tenants, two resources. Tenant 0: three unit tasks all on
        // r0 (W=3, wmax=1, tight T = 3/2 + 1 = 2.5 -> r0 violates).
        // Tenant 1: one task on each resource (W=2, T = 2 -> none).
        let ts = TenantSet::new(vec![
            TenantSpec::new("tight", ThresholdPolicy::Tight, 1.0),
            TenantSpec::new("calm", ThresholdPolicy::Tight, 1.0),
        ]);
        let weights = vec![1.0; 5];
        let tenant_of = vec![0, 0, 0, 1, 1];
        let mut r0 = ResourceStack::new();
        r0.push(0, 1.0);
        r0.push(1, 1.0);
        r0.push(2, 1.0);
        r0.push(3, 1.0);
        let mut r1 = ResourceStack::new();
        r1.push(4, 1.0);
        let v = ts.violations(&[r0, r1], &weights, &tenant_of, 2);
        assert_eq!(v, vec![1, 0]);
    }

    #[test]
    fn single_tenant_counts_the_stack_loads() {
        // W = 4, wmax = 1, tight T = 4/2 + 1 = 3: r0 (load 4) violates.
        let ts = TenantSet::single(ThresholdPolicy::Tight);
        let mut r0 = ResourceStack::new();
        for t in 0..4 {
            r0.push(t, 1.0);
        }
        let stacks = [r0, ResourceStack::new()];
        let (weights, tenant_of) = (vec![1.0; 4], vec![0; 4]);
        assert_eq!(ts.violations(&stacks, &weights, &tenant_of, 2), vec![1]);
        assert_eq!(ts.violations_with_w_max(&stacks, &weights, &tenant_of, 2, 1.0), vec![1]);
        assert_eq!(ts.violations(&[], &[], &[], 0), vec![0], "empty fleet");
    }

    #[test]
    fn absent_tenant_reports_zero_violations() {
        let ts = TenantSet::new(vec![
            TenantSpec::new("a", ThresholdPolicy::Tight, 1.0),
            TenantSpec::new("ghost", ThresholdPolicy::Tight, 1.0),
        ]);
        let mut r0 = ResourceStack::new();
        r0.push(0, 2.0);
        let v = ts.violations(&[r0], &[2.0], &[0], 1);
        assert_eq!(v, vec![0, 0], "single resource holds its own average");
    }

    #[test]
    #[should_panic(expected = "non-positive share")]
    fn zero_share_rejected() {
        TenantSet::new(vec![TenantSpec::new("z", ThresholdPolicy::Tight, 0.0)]);
    }
}
