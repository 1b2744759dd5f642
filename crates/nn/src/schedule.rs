//! Wave schedule: groups a graph's nodes into maximal linear chains
//! (*segments*) and levels the segment DAG into *waves* whose segments are
//! mutually independent, so a forward pass can run sibling split-patch
//! branches concurrently.
//!
//! This is the serving mechanism ([`Schedule::interleave`]): a lone
//! request runs the waves, a batch of requests runs every slot segment by
//! segment in tape order with the sibling *requests* as the width. A
//! training step does not use a schedule at all — `Executor::run_with`
//! runs node by node in tape order, the order its memory plan was made for.
//!
//! The schedule is a pure function of the graph topology — never of thread
//! count — so execution order side effects (RNG draws, BN running-stat
//! updates) can be pinned to node-id order regardless of how many workers
//! pick up the segments.

use scnn_graph::Graph;

/// A leveled segment schedule (see module docs).
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Maximal linear chains, each a list of node ids in ascending
    /// (topological) order. A node joins its predecessor's segment iff it
    /// is that predecessor's only consumer and its only input.
    pub segments: Vec<Vec<usize>>,
    /// Waves of segment indices: wave `l` holds every segment whose longest
    /// dependency path through the segment DAG has length `l`. Segments in
    /// one wave never depend on each other, and all of their cross-segment
    /// inputs live in earlier waves.
    pub waves: Vec<Vec<usize>>,
}

/// One base [`Schedule`] replicated across `slots` concurrent request
/// slots, so split-patch branches of *different* requests become sibling
/// work units inside a single wave.
///
/// One slot keeps the base waves — sibling patches are the only width a
/// lone request has. Two or more advance in lock-step, one segment per
/// wave in ascending segment index (segments are numbered by head node id,
/// so that is a topological order: the tape's): the sibling slots supply
/// the width, every request runs patch by patch, and the planned frees of
/// a patch fire before the next patch allocates. A batch therefore holds
/// `slots ×` what one tape-order request does, whatever its size. The rule
/// looks at the slot count alone, never at thread count, so those bytes
/// are the same on every host.
///
/// A wave lists its `(slot, segment)` units in ascending order — segments
/// for one slot, slots for a batch. The order is part of the contract:
/// executors scatter results in unit order, so pinning it keeps batched
/// inference bit-identical at any worker count. Dependencies never cross
/// slots (each request reads only its own activations), so replicating a
/// legal per-slot order stays legal.
#[derive(Clone, Debug)]
pub struct InterleavedSchedule {
    /// Number of interleaved request slots.
    pub slots: usize,
    /// Merged waves of `(slot, segment)` work units (see type docs).
    pub waves: Vec<Vec<(usize, usize)>>,
}

impl Schedule {
    /// Builds the schedule for `graph`.
    pub fn build(graph: &Graph) -> Schedule {
        let consumers = graph.consumers();
        let n = graph.len();
        let mut seg_of = vec![usize::MAX; n];
        let mut segments: Vec<Vec<usize>> = Vec::new();
        for node in graph.nodes() {
            let id = node.id.0;
            // Chain onto the single input when we are its only consumer.
            // Ids ascend topologically, so the input's segment exists and
            // the input is its last element (anything appended after it
            // would be a second consumer).
            let chain = if node.inputs.len() == 1 {
                let p = node.inputs[0].0;
                (consumers[p].len() == 1).then_some(p)
            } else {
                None
            };
            match chain {
                Some(p) => {
                    let s = seg_of[p];
                    segments[s].push(id);
                    seg_of[id] = s;
                }
                None => {
                    seg_of[id] = segments.len();
                    segments.push(vec![id]);
                }
            }
        }

        // Only segment heads carry cross-segment edges (chained nodes have
        // exactly one, in-segment, input), and heads are visited before any
        // of their segment's tail — one id-ordered pass fixes all levels.
        let mut level = vec![0usize; segments.len()];
        for node in graph.nodes() {
            let s = seg_of[node.id.0];
            for inp in &node.inputs {
                let ps = seg_of[inp.0];
                if ps != s {
                    level[s] = level[s].max(level[ps] + 1);
                }
            }
        }
        let n_waves = level.iter().map(|&l| l + 1).max().unwrap_or(0);
        let mut waves = vec![Vec::new(); n_waves];
        for (s, &l) in level.iter().enumerate() {
            waves[l].push(s);
        }
        Schedule { segments, waves }
    }

    /// Interleaves this schedule across `slots` concurrent requests (see
    /// [`InterleavedSchedule`]).
    ///
    /// # Panics
    ///
    /// Panics when `slots` is zero — a batch of nothing has no schedule.
    pub fn interleave(&self, slots: usize) -> InterleavedSchedule {
        assert!(slots > 0, "interleave needs at least one request slot");
        let waves = if slots == 1 {
            self.waves
                .iter()
                .map(|wave| wave.iter().map(|&seg| (0, seg)).collect())
                .collect()
        } else {
            (0..self.segments.len())
                .map(|seg| (0..slots).map(|slot| (slot, seg)).collect())
                .collect()
        };
        InterleavedSchedule { slots, waves }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_graph::PoolKind;
    use scnn_tensor::Padding2d;

    #[test]
    fn straight_chain_is_one_segment_per_wave() {
        let mut g = Graph::new();
        let x = g.input(&[2, 1, 4, 4]);
        let f = g.flatten(x, "f");
        let l = g.linear(f, 4, "fc");
        let r = g.relu(l, "r");
        let l2 = g.linear(r, 2, "fc2");
        g.softmax_cross_entropy(l2, "loss");

        let s = Schedule::build(&g);
        assert_eq!(s.segments.len(), 1, "pure chain collapses: {:?}", s.segments);
        assert_eq!(s.waves, vec![vec![0]]);
        assert_eq!(s.segments[0], (0..g.len()).collect::<Vec<_>>());
    }

    #[test]
    fn sibling_branches_share_a_wave() {
        // input -> slice/slice -> (conv, relu) each -> concat -> loss:
        // the two patch chains must be distinct segments in the same wave.
        let mut g = Graph::new();
        let x = g.input(&[2, 2, 4, 8]);
        let a = g.slice(x, 3, 0, 4, "a");
        let b = g.slice(x, 3, 4, 4, "b");
        let ca = g.conv2d(a, 2, 3, 1, Padding2d::symmetric(1), true, "ca");
        let ra = g.relu(ca, "ra");
        let cb = g.conv2d(b, 2, 3, 1, Padding2d::symmetric(1), true, "cb");
        let rb = g.relu(cb, "rb");
        let j = g.concat(&[ra, rb], 3, "j");
        let f = g.flatten(j, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");

        let s = Schedule::build(&g);
        let seg_of = |id: usize| {
            s.segments
                .iter()
                .position(|seg| seg.contains(&id))
                .unwrap()
        };
        // Branch chains stay whole and apart.
        assert_eq!(seg_of(a.0), seg_of(ra.0));
        assert_eq!(seg_of(b.0), seg_of(rb.0));
        assert_ne!(seg_of(a.0), seg_of(b.0));
        // And they are scheduled in the same wave.
        let wave_of = |seg: usize| s.waves.iter().position(|w| w.contains(&seg)).unwrap();
        assert_eq!(wave_of(seg_of(a.0)), wave_of(seg_of(b.0)));
        // The concat depends on both branches, so it comes strictly later.
        assert!(wave_of(seg_of(j.0)) > wave_of(seg_of(ra.0)));
        // Input feeds two consumers, so it sits alone before the branches.
        assert!(wave_of(seg_of(x.0)) < wave_of(seg_of(a.0)));
    }

    #[test]
    fn every_node_scheduled_exactly_once_and_deps_respected() {
        let mut g = Graph::new();
        let x = g.input(&[1, 2, 8, 8]);
        let c = g.conv2d(x, 2, 3, 1, Padding2d::symmetric(1), false, "c");
        let p = g.pool2d(c, PoolKind::Max, 2, 2, Padding2d::default(), "p");
        let r = g.relu(p, "r");
        let res = g.add(&[p, r], "res");
        let f = g.flatten(res, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");

        let s = Schedule::build(&g);
        let mut seen = vec![false; g.len()];
        let mut done = vec![false; g.len()];
        for wave in &s.waves {
            // All inputs of this wave's nodes were finished by prior waves
            // or earlier nodes of the same segment.
            for &seg in wave {
                let mut local = Vec::new();
                for &id in &s.segments[seg] {
                    assert!(!seen[id], "node {id} scheduled twice");
                    seen[id] = true;
                    for inp in &g.node(scnn_graph::NodeId(id)).inputs {
                        assert!(
                            done[inp.0] || local.contains(&inp.0),
                            "node {id} ran before input {}",
                            inp.0
                        );
                    }
                    local.push(id);
                }
            }
            for &seg in wave {
                for &id in &s.segments[seg] {
                    done[id] = true;
                }
            }
        }
        assert!(seen.iter().all(|&v| v), "all nodes scheduled");
    }

    #[test]
    fn interleave_one_slot_is_the_base_schedule() {
        let mut g = Graph::new();
        let x = g.input(&[2, 2, 4, 8]);
        let a = g.slice(x, 3, 0, 4, "a");
        let b = g.slice(x, 3, 4, 4, "b");
        let j = g.concat(&[a, b], 3, "j");
        let f = g.flatten(j, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");

        let s = Schedule::build(&g);
        let i = s.interleave(1);
        assert_eq!(i.slots, 1);
        let flat: Vec<Vec<usize>> = i
            .waves
            .iter()
            .map(|w| w.iter().map(|&(slot, seg)| {
                assert_eq!(slot, 0);
                seg
            }).collect())
            .collect();
        assert_eq!(flat, s.waves);
    }

    #[test]
    fn interleave_batch_runs_every_slot_in_tape_order() {
        let mut g = Graph::new();
        let x = g.input(&[2, 2, 4, 8]);
        let a = g.slice(x, 3, 0, 4, "a");
        let b = g.slice(x, 3, 4, 4, "b");
        let ca = g.conv2d(a, 2, 3, 1, Padding2d::symmetric(1), true, "ca");
        let cb = g.conv2d(b, 2, 3, 1, Padding2d::symmetric(1), true, "cb");
        let j = g.concat(&[ca, cb], 3, "j");
        let f = g.flatten(j, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");

        let s = Schedule::build(&g);
        assert_eq!(s.waves.iter().map(Vec::len).max(), Some(2), "the two patch chains share a wave");
        // Sibling slots supply the width: wave `seg` is segment `seg` of
        // every slot, slots ascending — tape order per request.
        let slots = 3;
        let i = s.interleave(slots);
        let expect: Vec<Vec<(usize, usize)>> = (0..s.segments.len())
            .map(|seg| (0..slots).map(|slot| (slot, seg)).collect())
            .collect();
        assert_eq!(i.waves, expect);
    }

    #[test]
    #[should_panic(expected = "at least one request slot")]
    fn interleave_zero_slots_panics() {
        let mut g = Graph::new();
        let x = g.input(&[1, 1, 2, 2]);
        let f = g.flatten(x, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");
        Schedule::build(&g).interleave(0);
    }
}
