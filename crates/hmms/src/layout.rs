//! Static memory planning (§4.4): first-fit placement of every TSO in the
//! three memory pools.
//!
//! Walking the serialized tape with the memory plan's alloc/free events,
//! each allocation takes the first contiguous gap it fits in. Because
//! planning is entirely offline, the runtime performs no allocation at all;
//! the pool's high-water mark *is* the device memory requirement, which is
//! what the Figure 10 maximum-batch-size search compares against the
//! device capacity.

use std::collections::HashMap;

use scnn_graph::Graph;

use crate::plan::{MemEvent, MemoryPlan};
use crate::tso::{TsoAssignment, TsoId, TsoRole};

/// The result of static planning: addresses and pool sizes.
#[derive(Clone, Debug)]
pub struct StaticLayout {
    /// High-water mark of the device general-purpose pool (activations,
    /// errors, aux, workspace), in bytes.
    pub device_general_bytes: usize,
    /// High-water mark of the *workspace-role* TSOs alone — the per-layer
    /// kernel scratch term (tiled conv `dw` partials etc.) inside
    /// [`device_general_bytes`]. Comparing it against the measured scratch
    /// peak (`scnn_par::scratch::peak_bytes`) closes the planned-vs-real
    /// gap the μ-cuDNN-style workspace accounting exists for.
    pub device_workspace_bytes: usize,
    /// Device parameter pool: parameters + gradients.
    pub device_param_bytes: usize,
    /// Host pool: total bytes of offloaded TSOs. `scnn-runtime` keeps it
    /// in an unlinked file (its `HostArena`), so these bytes sit in the
    /// kernel's page cache rather than in the process's memory.
    pub host_pool_bytes: usize,
    /// Address of every TSO *instance* (a TSO freed and re-allocated for
    /// prefetch has two instances) in the general pool.
    pub addresses: HashMap<(TsoId, usize), usize>,
    /// Bytes of workspace allocations whose packed address range shares
    /// bytes with an offloaded TSO's slot — legal only because their
    /// lifetimes are disjoint (the slot is dead across its offload
    /// window). Diagnostic for how much of the workspace traffic the
    /// overlap absorbed; zero unless [`LayoutOptions::overlap_workspace`]
    /// is set and the packing beat plain first-fit.
    pub workspace_overlapped_bytes: usize,
}

impl StaticLayout {
    /// Total device bytes (general + parameter pools).
    pub fn device_total_bytes(&self) -> usize {
        self.device_general_bytes + self.device_param_bytes
    }

    /// Planned device bytes for serving over this (inference) layout:
    /// `concurrency` request slots in flight, each with its own general
    /// pool, all sharing one frozen copy of the parameters —
    /// `params + concurrency × pool`, the paper's Fig. 10 capacity model.
    pub fn serving_device_bytes(&self, concurrency: usize) -> usize {
        self.device_param_bytes + concurrency * self.device_general_bytes
    }
}

/// An illegal event sequence found while replaying a memory plan — a
/// planner bug surfaced as a value instead of a panic, so callers (the
/// planner API, the experiment binaries, the max-batch search) can report
/// which plan was at fault and keep going.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// A TSO was allocated while already live.
    DoubleAlloc(TsoId),
    /// A TSO was freed while not live.
    FreeOfDead(TsoId),
    /// TSOs still live after the final step.
    Leaked(Vec<TsoId>),
    /// An event referenced a TSO id outside the assignment's range — the
    /// plan and the TSO table disagree about which graph they describe.
    UnknownTso(TsoId),
    /// The plan's step count disagrees with the tape it claims to cover
    /// (`found` steps for a tape of `expected`).
    StepCountMismatch {
        /// Steps the plan carries.
        found: usize,
        /// Steps the tape demands (twice the node count).
        expected: usize,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::DoubleAlloc(t) => write!(f, "double alloc of {t:?}"),
            LayoutError::FreeOfDead(t) => write!(f, "free of dead {t:?}"),
            LayoutError::Leaked(ts) => {
                write!(f, "TSOs leaked past the end of the step: {ts:?}")
            }
            LayoutError::UnknownTso(t) => {
                write!(f, "event references {t:?}, which is not in the TSO assignment")
            }
            LayoutError::StepCountMismatch { found, expected } => {
                write!(f, "plan has {found} steps but the tape has {expected}")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// Options controlling the static placement pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayoutOptions {
    /// Overlap the conv workspace region with offloaded TSO slots.
    ///
    /// An offloaded TSO's address range is dead between its
    /// `OffloadSync`-free and its prefetch re-`Alloc` (the *offload
    /// window*). Online first-fit cannot exploit that window deliberately:
    /// it sees only the gap structure of the moment, and the big late-conv
    /// workspace allocations land past the high-water mark whenever
    /// fragmentation leaves no contiguous gap. With this set, placement
    /// switches to whole-step interval packing: every TSO *instance*
    /// becomes a `[alloc, free)` interval, intervals are placed largest
    /// first at the lowest address where no time-overlapping interval
    /// conflicts, and the pool size is the resulting high-water. Workspace
    /// then shares addresses with offloaded slots across exactly their
    /// offload windows — the sharing is proven by interval disjointness,
    /// and re-checked by a replay-time assert that no two simultaneously
    /// live instances overlap. Plans with no offloads keep the plain
    /// first-fit layout bit for bit.
    pub overlap_workspace: bool,
}

/// One placed lifetime: instance `inst` of `tso`, live over event
/// positions `[start, end)`, `size` bytes at offset `addr`.
struct Interval {
    tso: TsoId,
    inst: usize,
    start: usize,
    end: usize,
    size: usize,
    addr: usize,
}

/// Places `intervals` (in-place) largest-first at the lowest offset free of
/// time-overlapping conflicts; returns the high-water mark. Deterministic:
/// ties break on start position, then TSO id.
fn pack_intervals(intervals: &mut [Interval]) -> usize {
    let mut order: Vec<usize> = (0..intervals.len()).collect();
    order.sort_by_key(|&i| {
        let iv = &intervals[i];
        (std::cmp::Reverse(iv.size), iv.start, iv.tso.0, iv.inst)
    });
    let mut placed: Vec<usize> = Vec::new();
    let mut high = 0usize;
    for &i in &order {
        if intervals[i].size == 0 {
            placed.push(i);
            continue;
        }
        // Ranges blocked by already-placed, time-overlapping intervals.
        let mut blocks: Vec<(usize, usize)> = placed
            .iter()
            .map(|&j| &intervals[j])
            .filter(|o| o.size > 0 && o.start < intervals[i].end && intervals[i].start < o.end)
            .map(|o| (o.addr, o.addr + o.size))
            .collect();
        blocks.sort_unstable();
        let mut addr = 0usize;
        for (s, e) in blocks {
            if addr + intervals[i].size <= s {
                break;
            }
            addr = addr.max(e);
        }
        intervals[i].addr = addr;
        high = high.max(addr + intervals[i].size);
        placed.push(i);
    }
    high
}

/// Runs first-fit placement for `plan` with default [`LayoutOptions`]
/// (no workspace/offload overlap).
///
/// # Errors
///
/// See [`plan_layout_with`].
pub fn plan_layout(
    graph: &Graph,
    plan: &MemoryPlan,
    tso: &TsoAssignment,
) -> Result<StaticLayout, LayoutError> {
    plan_layout_with(graph, plan, tso, LayoutOptions::default())
}

/// Runs first-fit placement for `plan`.
///
/// # Errors
///
/// Returns a [`LayoutError`] on double-alloc, free-without-alloc, an event
/// referencing a TSO outside the assignment, or a leak at the end of the
/// step — all of which indicate a planner bug (or a plan paired with the
/// wrong graph); the tests and the runtime rely on this as a legality
/// check.
pub fn plan_layout_with(
    graph: &Graph,
    plan: &MemoryPlan,
    tso: &TsoAssignment,
    opts: LayoutOptions,
) -> Result<StaticLayout, LayoutError> {
    // Every event must reference a TSO the assignment knows; a mismatched
    // plan/assignment pair would otherwise panic on the size lookup below.
    for (_, _, e) in plan.events() {
        if e.tso().0 >= tso.len() {
            return Err(LayoutError::UnknownTso(e.tso()));
        }
    }

    // Plain first-fit replay. Runs unconditionally: it is both the
    // baseline placement and the plan legality check (double-alloc,
    // free-of-dead, leaks).
    let mut free = FreeList::new();
    let mut live: HashMap<TsoId, (usize, usize)> = HashMap::new(); // tso -> (addr, instance)
    let mut instance = vec![0usize; tso.len()];
    let mut addresses = HashMap::new();
    let mut live_workspace = 0usize;
    let mut peak_workspace = 0usize;

    for (_, _, e) in plan.events() {
        match e {
            MemEvent::Alloc(t) => {
                if live.contains_key(t) {
                    return Err(LayoutError::DoubleAlloc(*t));
                }
                let size = tso.size(*t);
                let inst = instance[t.0];
                instance[t.0] += 1;
                let addr = free.alloc(size);
                addresses.insert((*t, inst), addr);
                live.insert(*t, (addr, inst));
                if matches!(tso.role(*t), TsoRole::Workspace(_)) {
                    live_workspace += size;
                    peak_workspace = peak_workspace.max(live_workspace);
                }
            }
            MemEvent::Free(t) => {
                let (addr, _) = live.remove(t).ok_or(LayoutError::FreeOfDead(*t))?;
                let size = tso.size(*t);
                free.free(addr, size);
                if matches!(tso.role(*t), TsoRole::Workspace(_)) {
                    live_workspace -= size;
                }
            }
            _ => {}
        }
    }
    if !live.is_empty() {
        let mut leaked: Vec<TsoId> = live.keys().copied().collect();
        leaked.sort_by_key(|t| t.0);
        return Err(LayoutError::Leaked(leaked));
    }

    let mut device_general_bytes = free.high_water();
    let mut workspace_overlapped_bytes = 0usize;

    // Overlap pass: re-place every instance by offline interval packing
    // and adopt the result only when it strictly beats first-fit, so
    // turning the option on can never grow the pool — and plans with no
    // offloads keep the plain layout bit for bit.
    if opts.overlap_workspace && !plan.offloaded.is_empty() {
        let mut intervals: Vec<Interval> = Vec::new();
        let mut counter = vec![0usize; tso.len()];
        let mut open: HashMap<TsoId, usize> = HashMap::new(); // tso -> intervals index
        let mut total = 0usize;
        for (pos, (_, _, e)) in plan.events().enumerate() {
            total = pos + 1;
            match e {
                MemEvent::Alloc(t) => {
                    let inst = counter[t.0];
                    counter[t.0] += 1;
                    open.insert(*t, intervals.len());
                    intervals.push(Interval {
                        tso: *t,
                        inst,
                        start: pos,
                        end: usize::MAX,
                        size: tso.size(*t),
                        addr: 0,
                    });
                }
                MemEvent::Free(t) => {
                    if let Some(i) = open.remove(t) {
                        intervals[i].end = pos;
                    }
                }
                _ => {}
            }
        }
        debug_assert!(open.is_empty(), "leak survived the replay check");
        for iv in &mut intervals {
            if iv.end == usize::MAX {
                iv.end = total;
            }
        }
        let packed_high = pack_intervals(&mut intervals);

        if packed_high < device_general_bytes {
            device_general_bytes = packed_high;
            addresses = intervals
                .iter()
                .map(|iv| ((iv.tso, iv.inst), iv.addr))
                .collect();

            // Replay-time legality assert: no two simultaneously live
            // instances may share bytes. Packing proves this by interval
            // time-disjointness; the replay re-checks it independently so
            // a packer bug cannot silently corrupt the runtime pool.
            let mut inst = vec![0usize; tso.len()];
            let mut live: HashMap<TsoId, (usize, usize)> = HashMap::new(); // tso -> (addr, end)
            for (_, _, e) in plan.events() {
                match e {
                    MemEvent::Alloc(t) => {
                        let i = inst[t.0];
                        inst[t.0] += 1;
                        let size = tso.size(*t);
                        if size == 0 {
                            continue;
                        }
                        let addr = addresses[&(*t, i)];
                        for (o, &(oa, oe)) in &live {
                            assert!(
                                addr + size <= oa || oe <= addr,
                                "packed placement aliases live {o:?} and {t:?} at {addr}..{}",
                                addr + size
                            );
                        }
                        live.insert(*t, (addr, addr + size));
                    }
                    MemEvent::Free(t) => {
                        live.remove(t);
                    }
                    _ => {}
                }
            }

            // Workspace bytes whose packed range shares addresses with an
            // offloaded slot — the overlap the option exists to create.
            let mut offloaded = vec![false; tso.len()];
            for &t in &plan.offloaded {
                offloaded[t.0] = true;
            }
            let slots: Vec<(usize, usize)> = intervals
                .iter()
                .filter(|iv| offloaded[iv.tso.0] && iv.size > 0)
                .map(|iv| (iv.addr, iv.addr + iv.size))
                .collect();
            workspace_overlapped_bytes = intervals
                .iter()
                .filter(|iv| {
                    iv.size > 0
                        && matches!(tso.role(iv.tso), TsoRole::Workspace(_))
                        && slots
                            .iter()
                            .any(|&(s, e)| iv.addr < e && s < iv.addr + iv.size)
                })
                .map(|iv| iv.size)
                .sum();
        }
    }

    let host_pool_bytes = plan.offloaded.iter().map(|&t| tso.size(t)).sum();
    // Parameters and their gradients live in the dedicated parameter pool.
    let device_param_bytes = 2 * graph.param_elems() * 4;

    Ok(StaticLayout {
        device_general_bytes,
        device_workspace_bytes: peak_workspace,
        device_param_bytes,
        host_pool_bytes,
        addresses,
        workspace_overlapped_bytes,
    })
}

/// A simple first-fit free-list over an unbounded address space, tracking
/// the high-water mark.
struct FreeList {
    /// Sorted, disjoint, coalesced gaps below the high-water mark.
    gaps: Vec<(usize, usize)>, // (start, end)
    high: usize,
}

impl FreeList {
    fn new() -> Self {
        FreeList {
            gaps: Vec::new(),
            high: 0,
        }
    }

    fn high_water(&self) -> usize {
        self.high
    }

    fn alloc(&mut self, size: usize) -> usize {
        if size == 0 {
            return 0;
        }
        for i in 0..self.gaps.len() {
            let (s, e) = self.gaps[i];
            if e - s >= size {
                if e - s == size {
                    self.gaps.remove(i);
                } else {
                    self.gaps[i] = (s + size, e);
                }
                return s;
            }
        }
        let addr = self.high;
        self.high += size;
        addr
    }

    fn free(&mut self, addr: usize, size: usize) {
        if size == 0 {
            return;
        }
        let pos = self.gaps.partition_point(|&(s, _)| s < addr);
        self.gaps.insert(pos, (addr, addr + size));
        // Coalesce with neighbors.
        if pos + 1 < self.gaps.len() && self.gaps[pos].1 == self.gaps[pos + 1].0 {
            self.gaps[pos].1 = self.gaps[pos + 1].1;
            self.gaps.remove(pos + 1);
        }
        if pos > 0 && self.gaps[pos - 1].1 == self.gaps[pos].0 {
            self.gaps[pos - 1].1 = self.gaps[pos].1;
            self.gaps.remove(pos);
        }
        // Shrink the high-water gap? Keep high as a *mark*: it records the
        // maximum extent ever used, which is the pool size we must reserve.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::{plan_hmms, plan_no_offload, PlannerOptions};
    use crate::profile::Profile;
    use crate::tso::TsoOptions;
    use scnn_graph::Tape;
    use scnn_tensor::Padding2d;

    fn setup() -> (Graph, Tape, TsoAssignment, Profile) {
        let mut g = Graph::new();
        let mut x = g.input(&[2, 3, 16, 16]);
        for i in 0..4 {
            x = g.conv2d(x, 8, 3, 1, Padding2d::symmetric(1), false, &format!("c{i}"));
            x = g.relu(x, &format!("r{i}"));
        }
        let f = g.flatten(x, "f");
        let l = g.linear(f, 4, "fc");
        g.softmax_cross_entropy(l, "loss");
        let tape = Tape::new(&g);
        let mut ws = vec![0; g.len()];
        // Give convs a workspace.
        for n in g.nodes() {
            if matches!(n.op, scnn_graph::Op::Conv2d { .. }) {
                ws[n.id.0] = 4096;
            }
        }
        let tso = TsoAssignment::new(&g, &ws, TsoOptions::default());
        let profile = Profile {
            fwd_time: vec![1e-3; g.len()],
            bwd_time: vec![2e-3; g.len()],
            workspace_bytes: ws,
            link_bandwidth: 30e9,
        };
        (g, tape, tso, profile)
    }

    #[test]
    fn first_fit_reuses_gaps() {
        let mut f = FreeList::new();
        let a = f.alloc(100);
        let b = f.alloc(50);
        assert_eq!((a, b), (0, 100));
        f.free(a, 100);
        let c = f.alloc(40); // fits in the gap at 0
        assert_eq!(c, 0);
        let d = f.alloc(70); // gap is 60 wide now → extends high water
        assert_eq!(d, 150);
        assert_eq!(f.high_water(), 220);
    }

    #[test]
    fn free_list_coalesces() {
        let mut f = FreeList::new();
        let a = f.alloc(10);
        let b = f.alloc(10);
        let c = f.alloc(10);
        f.free(a, 10);
        f.free(c, 10);
        f.free(b, 10); // should merge into one 30-wide gap
        assert_eq!(f.gaps, vec![(0, 30)]);
        assert_eq!(f.alloc(30), 0);
    }

    #[test]
    fn offloading_reduces_device_high_water() {
        let (g, tape, tso, profile) = setup();
        let base = plan_layout(&g, &plan_no_offload(&g, &tape, &tso, &profile), &tso)
            .expect("baseline plan is legal");
        let hmms = plan_layout(
            &g,
            &plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default()),
            &tso,
        )
        .expect("hmms plan is legal");
        assert!(
            hmms.device_general_bytes < base.device_general_bytes,
            "offloading did not reduce peak: {} vs {}",
            hmms.device_general_bytes,
            base.device_general_bytes
        );
        assert!(hmms.host_pool_bytes > 0);
        assert_eq!(base.host_pool_bytes, 0);
        assert_eq!(base.device_param_bytes, hmms.device_param_bytes);
    }

    #[test]
    fn layout_is_leak_free_and_instances_tracked() {
        let (g, tape, tso, profile) = setup();
        let plan = plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default());
        let layout = plan_layout(&g, &plan, &tso).expect("hmms plan is legal");
        // Every offloaded TSO has exactly two placed instances.
        for &t in &plan.offloaded {
            assert!(layout.addresses.contains_key(&(t, 0)));
            assert!(layout.addresses.contains_key(&(t, 1)));
        }
        assert!(layout.device_general_bytes > 0);
        // One conv's workspace is live at a time (alloc'd before each conv
        // step, freed after), so the workspace peak is a single node's term.
        assert_eq!(layout.device_workspace_bytes, 4096);
        assert!(layout.device_workspace_bytes <= layout.device_general_bytes);
    }

    #[test]
    fn overlap_reuses_offload_windows_and_never_hurts() {
        let (g, tape, tso, profile) = setup();
        for plan in [
            plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default()),
            plan_no_offload(&g, &tape, &tso, &profile),
        ] {
            let plain = plan_layout(&g, &plan, &tso).expect("plan is legal");
            let overlapped = plan_layout_with(
                &g,
                &plan,
                &tso,
                LayoutOptions {
                    overlap_workspace: true,
                },
            )
            .expect("plan is legal with overlap");
            assert!(
                overlapped.device_general_bytes <= plain.device_general_bytes,
                "overlap grew the pool: {} vs {}",
                overlapped.device_general_bytes,
                plain.device_general_bytes
            );
            if plan.offloaded.is_empty() {
                // No packing without offloads: bitwise identical layouts.
                assert_eq!(overlapped.addresses, plain.addresses);
                assert_eq!(overlapped.workspace_overlapped_bytes, 0);
            } else {
                assert!(
                    overlapped.device_general_bytes < plain.device_general_bytes,
                    "packing did not beat first-fit: {} vs {}",
                    overlapped.device_general_bytes,
                    plain.device_general_bytes
                );
                assert!(
                    overlapped.workspace_overlapped_bytes > 0,
                    "no workspace landed inside an offload window"
                );
            }
            // Workspace accounting is placement-independent.
            assert_eq!(
                overlapped.device_workspace_bytes,
                plain.device_workspace_bytes
            );
        }
    }

    #[test]
    fn overlap_placement_never_aliases_live_ranges() {
        let (g, tape, tso, profile) = setup();
        let plan = plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default());
        let layout = plan_layout_with(
            &g,
            &plan,
            &tso,
            LayoutOptions {
                overlap_workspace: true,
            },
        )
        .expect("plan is legal with overlap");
        // Replay liveness: no two simultaneously live instances may share
        // bytes (workspace/offload sharing only spans dead ranges).
        let mut live: Vec<(usize, usize)> = Vec::new(); // (addr, end)
        let mut inst = vec![0usize; tso.len()];
        let mut at: HashMap<TsoId, (usize, usize)> = HashMap::new();
        for (_, _, e) in plan.events() {
            match e {
                MemEvent::Alloc(t) => {
                    let i = inst[t.0];
                    inst[t.0] += 1;
                    let addr = layout.addresses[&(*t, i)];
                    let size = tso.size(*t);
                    for &(a, end) in &live {
                        assert!(
                            addr + size <= a || end <= addr || size == 0,
                            "live ranges overlap at {addr}..{}",
                            addr + size
                        );
                    }
                    live.push((addr, addr + size));
                    at.insert(*t, (addr, addr + size));
                }
                MemEvent::Free(t) => {
                    let r = at.remove(t).expect("free of live");
                    live.retain(|&x| x != r);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn param_pool_matches_param_count() {
        let (g, tape, tso, profile) = setup();
        let layout = plan_layout(&g, &plan_no_offload(&g, &tape, &tso, &profile), &tso)
            .expect("baseline plan is legal");
        assert_eq!(layout.device_param_bytes, 2 * g.param_elems() * 4);
    }

    #[test]
    fn double_free_is_a_layout_error_not_a_panic() {
        let (g, tape, tso, profile) = setup();
        let mut plan = plan_no_offload(&g, &tape, &tso, &profile);
        // Corrupt the plan: duplicate the first Free so the second one
        // hits a dead TSO.
        let dup = plan
            .steps
            .iter()
            .flat_map(|s| s.before.iter().chain(&s.after))
            .find_map(|e| match e {
                MemEvent::Free(t) => Some(*t),
                _ => None,
            })
            .expect("plan frees something");
        plan.steps
            .last_mut()
            .expect("plan has steps")
            .after
            .push(MemEvent::Free(dup));
        let err = plan_layout(&g, &plan, &tso).unwrap_err();
        assert_eq!(err, LayoutError::FreeOfDead(dup));
        assert!(err.to_string().contains("free of dead"));
    }

    #[test]
    fn double_alloc_and_leak_are_layout_errors() {
        let (g, tape, tso, profile) = setup();
        let base = plan_no_offload(&g, &tape, &tso, &profile);

        let mut doubled = base.clone();
        let first_alloc = doubled
            .steps
            .iter()
            .flat_map(|s| s.before.iter().chain(&s.after))
            .find_map(|e| match e {
                MemEvent::Alloc(t) => Some(*t),
                _ => None,
            })
            .expect("plan allocates something");
        doubled.steps[0].before.insert(0, MemEvent::Alloc(first_alloc));
        assert!(matches!(
            plan_layout(&g, &doubled, &tso).unwrap_err(),
            LayoutError::DoubleAlloc(t) if t == first_alloc
        ));

        let mut leaky = base;
        for s in &mut leaky.steps {
            s.before.retain(|e| !matches!(e, MemEvent::Free(t) if *t == first_alloc));
            s.after.retain(|e| !matches!(e, MemEvent::Free(t) if *t == first_alloc));
        }
        assert!(matches!(
            plan_layout(&g, &leaky, &tso).unwrap_err(),
            LayoutError::Leaked(ts) if ts == vec![first_alloc]
        ));
    }

    #[test]
    fn unknown_tso_is_a_layout_error_not_a_panic() {
        let (g, tape, tso, profile) = setup();
        let mut plan = plan_no_offload(&g, &tape, &tso, &profile);
        // Corrupt the plan: reference a TSO id past the assignment's end,
        // as a plan built against a different graph would.
        let bogus = TsoId(tso.len() + 7);
        plan.steps[0].before.push(MemEvent::Alloc(bogus));
        let err = plan_layout(&g, &plan, &tso).unwrap_err();
        assert_eq!(err, LayoutError::UnknownTso(bogus));
        assert!(err.to_string().contains("not in the TSO assignment"));
    }
}
