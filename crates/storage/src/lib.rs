//! # conquer-storage
//!
//! Durable storage for the ConQuer stack: a checksummed write-ahead log,
//! immutable checkpoint segments, and crash recovery. Std-only, like the
//! rest of the workspace.
//!
//! The crate is payload-agnostic: callers append `(kind, bytes)` records
//! and checkpoint `(table, bytes)` snapshots; what the bytes mean is the
//! engine's business (see `conquer_engine::durable`). The contract this
//! layer provides:
//!
//! - **Log-before-apply.** [`Store::append`] persists a record before the
//!   caller mutates in-memory state, so a crash after the append replays
//!   the mutation and a crash before it loses nothing.
//! - **Torn tails, not torn state.** Every record and segment carries a
//!   CRC-32; recovery stops at the first bad checksum instead of
//!   panicking, and a partially-written final record is dropped whole —
//!   never half-applied.
//! - **Atomic checkpoints.** Segments are written and fsynced *before* the
//!   manifest that references them is renamed into place; the rename is
//!   the commit point. A crash mid-checkpoint (or mid-recovery) recovers
//!   to a consistent state, at most losing the unsynced WAL tail.
//! - **Bounded loss.** With [`SyncPolicy::Always`] a `kill -9` loses
//!   nothing acknowledged; with `IntervalMs`/`Never` it loses at most the
//!   records appended since the last fsync.
//! - **No replay of a refusal.** With [`SyncPolicy::Always`] an append
//!   whose fsync fails is cut back out of the WAL before the error is
//!   returned, so a reopen without a crash replays exactly the appends
//!   that succeeded; if the cut fails, the store refuses every later write
//!   until it is reopened.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod crc32;
pub mod fault;
mod manifest;
mod segment;
mod store;
mod wal;

pub use crc32::crc32;
pub use store::{Recovered, SegmentData, Store, StoreStatus};
pub use wal::WalRecord;

/// When the WAL is fsynced relative to appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append: no acknowledged record is ever lost.
    Always,
    /// fsync when at least this many milliseconds have passed since the
    /// last sync (checked on append and ticked by the checkpointer).
    IntervalMs(u64),
    /// Never fsync outside checkpoints; fastest, loses the tail on crash.
    Never,
}

impl SyncPolicy {
    /// Parse the CLI/`SET` spelling: `always`, `never`, or `interval:<ms>`
    /// (also accepts `interval_ms:<ms>` and `<ms>` alone).
    pub fn parse(s: &str) -> Result<SyncPolicy, String> {
        let s = s.trim();
        match s {
            "always" => return Ok(SyncPolicy::Always),
            "never" => return Ok(SyncPolicy::Never),
            _ => {}
        }
        let ms = s
            .strip_prefix("interval_ms:")
            .or_else(|| s.strip_prefix("interval:"))
            .unwrap_or(s);
        ms.parse::<u64>().map(SyncPolicy::IntervalMs).map_err(|_| {
            format!("invalid sync policy {s:?}: expected always | interval:<ms> | never")
        })
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Always => write!(f, "always"),
            SyncPolicy::IntervalMs(ms) => write!(f, "interval:{ms}"),
            SyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Options for [`Store::open`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    pub sync: SyncPolicy,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            sync: SyncPolicy::Always,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_policy_parses_all_spellings() {
        assert_eq!(SyncPolicy::parse("always"), Ok(SyncPolicy::Always));
        assert_eq!(SyncPolicy::parse("never"), Ok(SyncPolicy::Never));
        assert_eq!(
            SyncPolicy::parse("interval:250"),
            Ok(SyncPolicy::IntervalMs(250))
        );
        assert_eq!(
            SyncPolicy::parse("interval_ms:10"),
            Ok(SyncPolicy::IntervalMs(10))
        );
        assert_eq!(SyncPolicy::parse("42"), Ok(SyncPolicy::IntervalMs(42)));
        assert!(SyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn sync_policy_display_roundtrips() {
        for policy in [
            SyncPolicy::Always,
            SyncPolicy::Never,
            SyncPolicy::IntervalMs(7),
        ] {
            assert_eq!(SyncPolicy::parse(&policy.to_string()), Ok(policy));
        }
    }
}
