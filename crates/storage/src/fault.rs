//! Crash/IO fault injection hook.
//!
//! The storage crate cannot depend on `conquer-engine` (the engine depends
//! on us), yet the deterministic fault schedule lives in `engine::faults`.
//! The bridge is a process-global hook: the engine installs a function that
//! consults its thread-local schedule, and every storage IO site calls
//! [`trip`] with a named point before performing the real operation. With
//! no hook installed (production builds, or the engine's `fault-injection`
//! feature off) the call is a single `OnceLock` load.
//!
//! Points the store trips, in IO order:
//!
//! | point | site |
//! |-------|------|
//! | `wal_append_io`       | before writing an assembled WAL record |
//! | `wal_sync_fail`       | before `fsync` of the WAL file |
//! | `wal_truncate_fail`   | before cutting a record whose fsync failed back out of the WAL |
//! | `segment_write_torn`  | before writing a checkpoint segment; on trip the store writes a deliberately truncated prefix first, so a real torn file is left on disk |
//! | `manifest_rename_fail`| after writing `MANIFEST.tmp`, before the atomic rename |

use std::io;
use std::sync::OnceLock;

/// A fault hook: returns `Err` when the named point should fail.
pub type Hook = fn(&'static str) -> io::Result<()>;

static HOOK: OnceLock<Hook> = OnceLock::new();

/// Install the process-wide fault hook. First install wins; later calls are
/// ignored (the engine installs once per process, schedules are per-thread).
pub fn set_hook(hook: Hook) {
    let _ = HOOK.set(hook);
}

/// Consult the hook for `point`; `Ok(())` when no hook is installed.
pub fn trip(point: &'static str) -> io::Result<()> {
    match HOOK.get() {
        Some(hook) => hook(point),
        None => Ok(()),
    }
}
