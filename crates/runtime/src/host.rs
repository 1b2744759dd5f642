//! The host tier: the second level of the paper's heterogeneous memory
//! system, outside the process.
//!
//! The paper offloads cold activations from GPU memory to host DRAM over
//! NVLink (§4.3–4.4), so device memory falls. Here the "device" is the
//! process, so the host tier is an unlinked file: created with
//! `create_new` under [`std::env::temp_dir`], removed from its directory
//! at once (the arena keeps only the open [`File`]), sized to the plan's
//! `host_pool_bytes` with `set_len`, and addressed by positioned reads
//! and writes at the byte offsets [`ExecPlan`](scnn_hmms::ExecPlan)
//! assigns per offloaded TSO. An offloaded activation therefore leaves
//! the process's anonymous memory for the kernel's page cache, which the
//! kernel may write back to the file system and evict; system-wide RAM
//! falls only when it does. The file disappears with the arena.
//!
//! Positioned I/O (`pwrite` / `pread`) moves no file cursor, so the
//! transfer worker and the runtime share the arena without a lock; the
//! plan's OffloadSync/PrefetchSync events order each slot's writer
//! before its reader.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::{FileExt, OpenOptionsExt};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::provider::RuntimeError;

/// Names each backing file apart from its siblings in this process.
static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);

/// The host-side staging pool for offloaded activations.
#[derive(Debug)]
pub struct HostArena {
    file: File,
}

impl HostArena {
    /// An arena of `bytes` bytes in [`std::env::temp_dir`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::HostTier`] when the backing file cannot be
    /// created, unlinked or sized.
    pub fn with_bytes(bytes: usize) -> Result<Self, RuntimeError> {
        HostArena::create_in(&std::env::temp_dir(), bytes)
    }

    /// An arena of `bytes` bytes backed by an unlinked file in `dir`.
    pub(crate) fn create_in(dir: &Path, bytes: usize) -> Result<Self, RuntimeError> {
        let fail = |e: io::Error| RuntimeError::HostTier {
            dir: dir.to_path_buf(),
            bytes,
            kind: e.kind(),
        };
        let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("scnn-host-{}-{n}", std::process::id()));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .mode(0o600)
            .open(&path)
            .map_err(fail)?;
        std::fs::remove_file(&path).map_err(fail)?;
        file.set_len(bytes as u64).map_err(fail)?;
        Ok(HostArena { file })
    }

    /// Writes `src` at `byte_off` (an offload landing).
    pub fn store(&self, byte_off: usize, src: &[f32]) -> io::Result<()> {
        // SAFETY: `u8` has alignment 1 and no invalid values, and the
        // byte view covers exactly `src`'s `size_of_val` bytes.
        let bytes = unsafe {
            std::slice::from_raw_parts(src.as_ptr().cast::<u8>(), std::mem::size_of_val(src))
        };
        self.file.write_all_at(bytes, byte_off as u64)
    }

    /// Reads `dst.len()` elements from `byte_off` (a prefetch source).
    pub fn load(&self, byte_off: usize, dst: &mut [f32]) -> io::Result<()> {
        // SAFETY: as in `store`; every bit pattern the read leaves is a
        // valid `f32`, and `dst` is borrowed mutably for the view's life.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(
                dst.as_mut_ptr().cast::<u8>(),
                std::mem::size_of_val(dst),
            )
        };
        self.file.read_exact_at(bytes, byte_off as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh empty directory under the temp dir, named for `test`.
    fn scratch_dir(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scnn-host-test-{}-{test}", std::process::id()));
        std::fs::create_dir(&dir).expect("scratch dir is creatable");
        dir
    }

    #[test]
    fn store_load_round_trips_at_offsets() {
        let arena = HostArena::with_bytes(64).expect("tier builds");
        arena.store(16, &[1.0, 2.0, 3.0]).expect("store");
        arena.store(0, &[9.0]).expect("store");
        let mut out = vec![0.0; 3];
        arena.load(16, &mut out).expect("load");
        assert_eq!(out, vec![1.0, 2.0, 3.0]);
        let mut one = vec![0.0; 1];
        arena.load(0, &mut one).expect("load");
        assert_eq!(one, vec![9.0]);
    }

    #[test]
    fn two_tiers_stay_independent() {
        let (a, b) = (
            HostArena::with_bytes(32).expect("a"),
            HostArena::with_bytes(32).expect("b"),
        );
        a.store(8, &[1.0, -0.0, f32::NAN.copysign(-1.0)])
            .expect("store a");
        b.store(8, &[4.0, 5.0, 6.0]).expect("store b");
        let (mut got_a, mut got_b) = (vec![0.0f32; 3], vec![0.0f32; 3]);
        a.load(8, &mut got_a).expect("load a");
        b.load(8, &mut got_b).expect("load b");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got_a), bits(&[1.0, -0.0, f32::NAN.copysign(-1.0)]));
        assert_eq!(got_b, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn creation_in_a_missing_directory_is_a_host_tier_error() {
        let dir = std::env::temp_dir().join(format!("scnn-host-missing-{}", std::process::id()));
        let err = HostArena::create_in(&dir, 64).expect_err("no directory, no tier");
        assert_eq!(
            err,
            RuntimeError::HostTier {
                dir,
                bytes: 64,
                kind: io::ErrorKind::NotFound
            }
        );
    }

    #[test]
    fn creation_leaves_no_directory_entry() {
        let dir = scratch_dir("unlinked");
        let arena = HostArena::create_in(&dir, 4096).expect("tier builds");
        arena.store(4092, &[7.0]).expect("store at the last slot");
        let left: Vec<_> = std::fs::read_dir(&dir).expect("dir lists").collect();
        std::fs::remove_dir_all(&dir).expect("scratch dir is removable");
        assert!(left.is_empty(), "the backing file is still named: {left:?}");
    }
}
