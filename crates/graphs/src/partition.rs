//! Contiguous node-range partitions — the shard layout of the scaled
//! online engine.
//!
//! A [`Partition`] splits the node id space `0..n` into `k` contiguous,
//! disjoint, covering ranges ("shards"). Contiguity is what makes shards
//! cheap: a shard's per-resource state is a plain sub-`Vec` of the global
//! state arrays (see `tlb_core::fragment`), splitting and re-joining move
//! only the stack headers of shards after the first, and mapping a node to its shard is a binary
//! search over `k+1` boundaries. The layout is a pure function of
//! `(n, k)`, never of scheduling, so sharded runs can be reproduced
//! bit-for-bit at any shard count.

use serde::{Deserialize, Serialize};

use crate::dynamic::DynamicGraph;
use crate::graph::NodeId;

/// A partition of the node ids `0..n` into contiguous shard ranges.
///
/// Shard `s` owns `bounds[s]..bounds[s+1]`; ranges are ascending,
/// disjoint, and cover `0..n`. [`Partition::contiguous`] balances sizes
/// to within one node (the first `n mod k` shards get the extra node).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// `k + 1` ascending boundaries: `bounds[0] = 0`, `bounds[k] = n`.
    bounds: Vec<NodeId>,
}

impl Partition {
    /// Evenly partition `0..n` into `shards` contiguous ranges. The shard
    /// count is clamped to `1..=max(n, 1)`, so asking for more shards
    /// than nodes degrades gracefully instead of creating empty shards.
    ///
    /// # Panics
    /// If `n` does not fit a `NodeId` (`u32`).
    pub fn contiguous(n: usize, shards: usize) -> Self {
        let n32 = NodeId::try_from(n).expect("node count must fit a u32 node id");
        let k = shards.clamp(1, n.max(1));
        let (base, extra) = (n / k, n % k);
        let mut bounds = Vec::with_capacity(k + 1);
        let mut at = 0usize;
        bounds.push(0);
        for s in 0..k {
            at += base + usize::from(s < extra);
            bounds.push(at as NodeId);
        }
        debug_assert_eq!(*bounds.last().unwrap(), n32);
        Partition { bounds }
    }

    /// Number of shards `k`.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of nodes `n` covered by the partition.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        *self.bounds.last().unwrap() as usize
    }

    /// The node range shard `s` owns.
    #[inline]
    pub fn range(&self, s: usize) -> core::ops::Range<NodeId> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// Iterate over all shard ranges in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = core::ops::Range<NodeId>> + '_ {
        (0..self.num_shards()).map(|s| self.range(s))
    }

    /// The shard owning node `v`.
    ///
    /// # Panics
    /// If `v >= n`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        assert!((v as usize) < self.num_nodes(), "node {v} outside the partitioned id space");
        // First boundary strictly above v, minus one, is v's shard.
        self.bounds.partition_point(|&b| b <= v) - 1
    }
}

impl DynamicGraph {
    /// Partition this graph's node id space into `shards` contiguous
    /// ranges (the shard layout covers *all* ids, active or not, so it
    /// stays valid across churn without re-partitioning).
    pub fn partition(&self, shards: usize) -> Partition {
        Partition::contiguous(self.num_nodes(), shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::complete;

    #[test]
    fn even_split_covers_and_balances() {
        for n in [1usize, 2, 7, 16, 100, 101] {
            for k in [1usize, 2, 3, 4, 7, 200] {
                let p = Partition::contiguous(n, k);
                assert_eq!(p.num_nodes(), n);
                assert_eq!(p.num_shards(), k.clamp(1, n));
                // Ranges are ascending, disjoint, covering, balanced ±1.
                let mut at = 0;
                let (mut min_len, mut max_len) = (usize::MAX, 0);
                for r in p.ranges() {
                    assert_eq!(r.start, at);
                    assert!(r.end > r.start, "empty shard in {p:?}");
                    min_len = min_len.min(r.len());
                    max_len = max_len.max(r.len());
                    at = r.end;
                }
                assert_eq!(at as usize, n);
                assert!(max_len - min_len <= 1, "unbalanced: {p:?}");
            }
        }
    }

    #[test]
    fn shard_of_matches_ranges() {
        let p = Partition::contiguous(23, 5);
        for s in 0..p.num_shards() {
            for v in p.range(s) {
                assert_eq!(p.shard_of(v), s);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the partitioned id space")]
    fn shard_of_rejects_out_of_range_ids() {
        Partition::contiguous(8, 2).shard_of(8);
    }

    #[test]
    fn dynamic_graph_partitions_its_full_id_space() {
        let mut dg = DynamicGraph::new(complete(10));
        dg.deactivate(3);
        let p = dg.partition(4);
        // Inactive nodes keep their slot: the layout ignores churn.
        assert_eq!(p.num_nodes(), 10);
        assert_eq!(p.num_shards(), 4);
    }

    #[test]
    fn single_shard_is_the_whole_range() {
        let p = Partition::contiguous(9, 1);
        assert_eq!(p.range(0), 0..9);
        assert_eq!(p.shard_of(8), 0);
    }
}
