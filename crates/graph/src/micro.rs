//! Per-layer micro-batch schedules (the μ-cuDNN axis, Oyama et al.).
//!
//! A schedule maps convolution nodes to a micro-batch size: run the
//! layer's forward/backward in chunks of that many images instead of the
//! full logical batch. Chunking shrinks the layer's *workspace* — the
//! planner's third axis alongside split configuration and offload strategy
//! — while gradient accumulation order is preserved, so training stays
//! bit-identical to the full-batch execution (see
//! `scnn_tensor::micro_batch_aligned`).
//!
//! Nodes absent from the schedule run un-chunked; an empty schedule is
//! exactly full-batch execution.

use std::collections::BTreeMap;

use crate::NodeId;

/// Per-node micro-batch assignments for one lowered graph, keyed by
/// [`NodeId`]. Deterministically ordered so plan exports and debug dumps
/// are stable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MicroBatchSchedule {
    /// The logical batch size the schedule was planned for.
    pub batch: usize,
    micro: BTreeMap<NodeId, usize>,
}

impl MicroBatchSchedule {
    /// An empty schedule for logical batch `batch` (all layers full-batch).
    pub fn new(batch: usize) -> Self {
        MicroBatchSchedule {
            batch,
            micro: BTreeMap::new(),
        }
    }

    /// Runs `node` in chunks of `micro_batch` images, replacing any
    /// previous assignment. The size is clamped to the logical batch at
    /// execution time and must satisfy `scnn_tensor::micro_batch_aligned`
    /// for bit-identity with full-batch training.
    pub fn insert(&mut self, node: NodeId, micro_batch: usize) {
        self.micro.insert(node, micro_batch);
    }

    /// The micro-batch size of `node`, if the schedule chunks it.
    pub fn get(&self, node: NodeId) -> Option<usize> {
        self.micro.get(&node).copied()
    }

    /// Number of micro-batched nodes.
    pub fn len(&self) -> usize {
        self.micro.len()
    }

    /// Whether no node is micro-batched.
    pub fn is_empty(&self) -> bool {
        self.micro.is_empty()
    }

    /// Iterates `(node, micro_batch)` in ascending node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.micro.iter().map(|(&id, &u)| (id, u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_round_trips_assignments() {
        let mut s = MicroBatchSchedule::new(8);
        assert!(s.is_empty());
        assert_eq!(s.get(NodeId(3)), None);
        s.insert(NodeId(3), 2);
        s.insert(NodeId(1), 4);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(NodeId(3)), Some(2));
        let order: Vec<usize> = s.iter().map(|(id, _)| id.0).collect();
        assert_eq!(order, vec![1, 3]);
    }
}
