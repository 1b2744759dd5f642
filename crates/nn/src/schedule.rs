//! Segment schedule: groups a graph's nodes into maximal linear chains
//! of consecutive node ids (*segments*), the unit one serving wave
//! advances every request slot by.
//!
//! There is one execution order — the tape's, ascending node id — at every
//! batch size: a serving batch runs segment by segment across its slots
//! (the sibling *requests* are the width), a training step node by node
//! (`Executor::run_with`). Both are `Executor::forward_wave` over a node
//! range; a segment only decides where the barriers between ranges fall.
//!
//! The schedule is a pure function of the graph topology — never of thread
//! count — so execution order side effects (RNG draws, BN running-stat
//! updates) stay pinned to node-id order however many workers pick up the
//! slots.

use std::ops::Range;

use scnn_graph::Graph;

/// A graph's segments, and their levels (see module docs).
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Maximal linear chains as node-id ranges, ascending and tiling
    /// `0..graph.len()`: running them in index order *is* the tape. A node
    /// joins its predecessor's segment iff it is that predecessor's only
    /// consumer, its only input, and the next node id.
    pub segments: Vec<Range<usize>>,
    /// Probe-only: nothing executes from this. Levels of segment indices —
    /// level `l` holds every segment whose longest dependency path through
    /// the segment DAG has length `l` — kept because the repo benchmark
    /// reports the graph's branch width from it (`nn.schedule_waves`,
    /// `nn.schedule_max_wave_width`).
    pub waves: Vec<Vec<usize>>,
}

impl Schedule {
    /// Builds the schedule for `graph`.
    pub fn build(graph: &Graph) -> Schedule {
        let consumers = graph.consumers();
        let mut seg_of = vec![usize::MAX; graph.len()];
        let mut segments: Vec<Range<usize>> = Vec::new();
        for node in graph.nodes() {
            let id = node.id.0;
            // Chain onto the previous node when it is our single input and
            // we are its only consumer: ids ascend topologically, so that
            // node is the open segment's last element.
            let chains =
                matches!(node.inputs[..], [p] if p.0 + 1 == id && consumers[p.0].len() == 1);
            if chains {
                segments.last_mut().expect("node 0 opened a segment").end = id + 1;
            } else {
                segments.push(id..id + 1);
            }
            seg_of[id] = segments.len() - 1;
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
        assert_eq!(s.segments[0], 0..g.len());
        assert_eq!(s.waves, vec![vec![0]]);
    }

    #[test]
    fn sibling_branches_share_a_wave() {
        // input -> (slice, conv, relu) twice -> concat -> loss: the two
        // patch chains must be distinct segments in the same wave.
        let mut g = Graph::new();
        let x = g.input(&[2, 2, 4, 8]);
        let a = g.slice(x, 3, 0, 4, "a");
        let ca = g.conv2d(a, 2, 3, 1, Padding2d::symmetric(1), true, "ca");
        let ra = g.relu(ca, "ra");
        let b = g.slice(x, 3, 4, 4, "b");
        let cb = g.conv2d(b, 2, 3, 1, Padding2d::symmetric(1), true, "cb");
        let rb = g.relu(cb, "rb");
        let j = g.concat(&[ra, rb], 3, "j");
        let f = g.flatten(j, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");

        let s = Schedule::build(&g);
        let seg_of = |id: usize| s.segments.iter().position(|seg| seg.contains(&id)).unwrap();
        // Branch chains stay whole and apart.
        assert_eq!(s.segments[seg_of(a.0)], a.0..ra.0 + 1);
        assert_eq!(s.segments[seg_of(b.0)], b.0..rb.0 + 1);
        // And they sit on the same level.
        let wave_of = |seg: usize| s.waves.iter().position(|w| w.contains(&seg)).unwrap();
        assert_eq!(wave_of(seg_of(a.0)), wave_of(seg_of(b.0)));
        // The concat depends on both branches, so it comes strictly later.
        assert!(wave_of(seg_of(j.0)) > wave_of(seg_of(ra.0)));
        // Input feeds two consumers, so it sits alone before the branches.
        assert!(wave_of(seg_of(x.0)) < wave_of(seg_of(a.0)));
    }

    #[test]
    fn a_chain_whose_ids_are_not_consecutive_is_cut() {
        // Both slices are built before either relu: `ra` is `a`'s only
        // consumer and reads nothing else, but `b` sits between them on
        // the tape — chaining them would run `ra` before `b`.
        let mut g = Graph::new();
        let x = g.input(&[2, 2, 4, 8]);
        let a = g.slice(x, 3, 0, 4, "a");
        let b = g.slice(x, 3, 4, 4, "b");
        let ra = g.relu(a, "ra");
        let rb = g.relu(b, "rb");
        let j = g.concat(&[ra, rb], 3, "j");
        let f = g.flatten(j, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");

        let s = Schedule::build(&g);
        let singles = [x, a, b, ra, rb].map(|id| id.0..id.0 + 1);
        assert_eq!(s.segments[..5], singles);
        assert_eq!(s.segments.len(), 6, "the join and everything after it chain up");
        assert_eq!(s.segments[5], j.0..g.len());
    }

    #[test]
    fn segments_tile_the_tape_and_levels_respect_deps() {
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
        let tiled: Vec<usize> = s.segments.iter().flat_map(|seg| seg.clone()).collect();
        assert_eq!(tiled, (0..g.len()).collect::<Vec<_>>(), "every node once, in tape order");

        let mut done = vec![false; g.len()];
        let mut leveled = 0;
        for wave in &s.waves {
            // Every input of this level's nodes comes from an earlier level
            // or from earlier in the same segment.
            for &seg in wave {
                for id in s.segments[seg].clone() {
                    for inp in &g.node(scnn_graph::NodeId(id)).inputs {
                        assert!(
                            done[inp.0] || (s.segments[seg].start..id).contains(&inp.0),
                            "node {id} is leveled before input {}",
                            inp.0
                        );
                    }
                }
            }
            for &seg in wave {
                leveled += 1;
                s.segments[seg].clone().for_each(|id| done[id] = true);
            }
        }
        assert_eq!(leveled, s.segments.len(), "every segment has a level");
    }
}
