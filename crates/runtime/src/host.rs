//! The pinned host arena: the second tier of the paper's heterogeneous
//! memory system.
//!
//! One flat `Vec<f32>` sized exactly to the plan's `host_pool_bytes`,
//! bump-addressed by the byte offsets [`ExecPlan`](scnn_hmms::ExecPlan)
//! assigns per offloaded TSO. Offload and prefetch copies run on the
//! background transfer worker, so the arena is shared behind a mutex; the
//! plan's OffloadSync/PrefetchSync events serialize each slot's writer
//! against its reader, so the lock only guards the map itself.

use std::sync::Mutex;

/// The host-side staging pool for offloaded activations.
#[derive(Debug)]
pub struct HostArena {
    data: Mutex<Vec<f32>>,
}

impl HostArena {
    /// An arena of `bytes` bytes (rounded down to whole `f32` elements).
    pub fn with_bytes(bytes: usize) -> Self {
        HostArena {
            data: Mutex::new(vec![0.0; bytes / 4]),
        }
    }

    /// Writes `src` at `byte_off` (an offload landing).
    pub fn store(&self, byte_off: usize, src: &[f32]) {
        let at = byte_off / 4;
        let mut data = self.data.lock().expect("host arena lock");
        data[at..at + src.len()].copy_from_slice(src);
    }

    /// Reads `dst.len()` elements from `byte_off` (a prefetch source).
    pub fn load(&self, byte_off: usize, dst: &mut [f32]) {
        let at = byte_off / 4;
        let data = self.data.lock().expect("host arena lock");
        dst.copy_from_slice(&data[at..at + dst.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_round_trips_at_offsets() {
        let arena = HostArena::with_bytes(64);
        arena.store(16, &[1.0, 2.0, 3.0]);
        arena.store(0, &[9.0]);
        let mut out = vec![0.0; 3];
        arena.load(16, &mut out);
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
        let mut one = vec![0.0; 1];
        arena.load(0, &mut one);
        assert_eq!(one, vec![9.0]);
    }
}
