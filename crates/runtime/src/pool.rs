//! Device-pool accounting.
//!
//! [`PoolGauge`] replays the planner's first-fit addresses verbatim and
//! checks that no two live TSOs overlap. Its high-water mark is, by
//! construction, the `device_general_bytes` the static layout promised —
//! the golden tests pin that equality.
//!
//! The gauge is a ledger, not storage: each node output is its own
//! `Vec<f32>`, dropped — back to the allocator — when the plan frees its
//! TSO.

use std::collections::HashMap;

/// Replays planned addresses and validates them: panics on a double alloc,
/// a free of a dead TSO, or two live TSOs overlapping — all of which mean
/// the plan and the execution disagree, a bug the runtime must not paper
/// over.
#[derive(Debug, Default)]
pub struct PoolGauge {
    /// Live intervals: TSO id → (address, size).
    live: HashMap<usize, (usize, usize)>,
    high: usize,
}

impl PoolGauge {
    /// An empty gauge.
    pub fn new() -> Self {
        PoolGauge::default()
    }

    /// Marks `tso` live at the planner-assigned `addr`.
    pub fn alloc(&mut self, tso: usize, addr: usize, size: usize) {
        assert!(
            !self.live.contains_key(&tso),
            "TSO {tso} allocated while already live"
        );
        if size > 0 {
            for (&other, &(a, s)) in &self.live {
                assert!(
                    addr + size <= a || a + s <= addr,
                    "TSO {tso} at [{addr}, {}) overlaps live TSO {other} at [{a}, {})",
                    addr + size,
                    a + s
                );
            }
        }
        self.high = self.high.max(addr + size);
        self.live.insert(tso, (addr, size));
    }

    /// Marks `tso` dead, releasing its interval.
    pub fn free(&mut self, tso: usize) {
        assert!(
            self.live.remove(&tso).is_some(),
            "TSO {tso} freed while not live"
        );
    }

    /// Highest address ever covered by a live TSO — the pool size the plan
    /// requires.
    pub fn high_water(&self) -> usize {
        self.high
    }

    /// Bytes currently live.
    pub fn live_bytes(&self) -> usize {
        self.live.values().map(|&(_, s)| s).sum()
    }

    /// Whether nothing is live (must hold at end of step: plans are
    /// leak-free by validation).
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_high_water_like_a_free_list() {
        let mut g = PoolGauge::new();
        g.alloc(0, 0, 100);
        g.alloc(1, 100, 50);
        assert_eq!(g.high_water(), 150);
        assert_eq!(g.live_bytes(), 150);
        g.free(0);
        g.alloc(2, 0, 40); // reuse the gap, high water unchanged
        assert_eq!(g.high_water(), 150);
        g.free(1);
        g.free(2);
        assert!(g.is_empty());
        assert_eq!(g.high_water(), 150);
    }

    #[test]
    #[should_panic(expected = "overlaps live TSO")]
    fn gauge_rejects_overlap() {
        let mut g = PoolGauge::new();
        g.alloc(0, 0, 100);
        g.alloc(1, 60, 10);
    }

    #[test]
    #[should_panic(expected = "freed while not live")]
    fn gauge_rejects_free_of_dead() {
        let mut g = PoolGauge::new();
        g.free(3);
    }

}
