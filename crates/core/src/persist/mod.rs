//! Durable, corruption-tolerant control-plane persistence.
//!
//! The control plane's crash story used to be an in-memory
//! [`ControlSnapshot`](crate::ControlSnapshot) — gone with the process.
//! This module makes it durable and *adversarially* durable: every byte
//! written is framed, versioned and CRC-checksummed, snapshots form a
//! retained generation chain, and a write-ahead journal of logical
//! operations replays the tail between the last snapshot and the crash
//! instant.
//!
//! Layers, bottom up:
//!
//! * [`codec`] — the length-prefixed, checksummed frame format and the
//!   bounds-checked byte reader/writer every encoder builds on. A frame
//!   that fails its checksum is *detected*, never decoded.
//! * [`storage`] — the [`StorageBackend`] trait (atomic whole-file write,
//!   append, batched append, read, list, remove) with in-memory,
//!   directory-backed, and fault-injecting implementations. [`FaultingStorage`] mangles writes
//!   under a seeded [`StorageFaultPlan`] — torn writes, truncation, bit
//!   flips, dropped (stale-generation) writes, disk-full — so recovery is
//!   tested against the failure modes real disks exhibit.
//! * [`snapshot`] — full and delta snapshot payload encodings. Deltas
//!   persist only the columns dirtied since the previous generation, so
//!   steady-state persistence cost scales with churn, not population.
//! * [`journal`] — the write-ahead journal: each control-plane mutation is
//!   one framed, sequence-numbered [`JournalOp`](journal::JournalOp);
//!   replay drives the real coordinator methods, so a recovered server is
//!   byte-identical to one that never crashed.
//! * [`chain`] — the generation chain and manifest, plus recovery: walk
//!   candidates newest-first, skip any generation whose snapshot (or
//!   delta base) fails validation, replay the longest valid journal
//!   prefix, and report what was lost truthfully in a
//!   [`RecoveryReport`].
//!
//! The recovery ladder never panics and never loads corrupt state: a bad
//! checksum anywhere demotes to the next-older generation; a garbled
//! journal record stops replay at the last valid record; when nothing on
//! disk survives, recovery degrades to a truthful cold start
//! (`cold_start`), expiring orphaned work rather than inventing state.

pub mod chain;
pub mod codec;
pub mod journal;
pub mod snapshot;
pub mod storage;

use std::fmt;

pub use chain::{PersistStats, Persistor, RecoveryReport};
pub use codec::CodecError;
pub use storage::{
    BatchAppended, DirStorage, FaultTally, FaultingStorage, MemStorage, StorageBackend,
    StorageError, StorageFaultPlan,
};

/// Configuration for the persistence layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistConfig {
    /// Every `full_every`-th generation is a full snapshot; the ones in
    /// between are deltas against the previous generation. `1` disables
    /// deltas entirely.
    pub full_every: u32,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig { full_every: 4 }
    }
}

/// Errors surfaced by the persistence layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The storage backend failed.
    Storage(StorageError),
    /// A frame or payload failed to decode.
    Codec(CodecError),
    /// The state is too large for the format: `what` counts `len`, and
    /// the field that carries it is a `u32`. Nothing was written.
    TooLarge {
        /// Which length overflowed.
        what: &'static str,
        /// Its value.
        len: usize,
    },
}

/// `len` as the `u32` the format stores it in, or the refusal a snapshot
/// writer returns instead of wrapping or panicking.
pub(crate) fn fit_u32(what: &'static str, len: usize) -> Result<u32, PersistError> {
    u32::try_from(len).map_err(|_| PersistError::TooLarge { what, len })
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Storage(e) => write!(f, "storage: {e}"),
            PersistError::Codec(e) => write!(f, "codec: {e}"),
            PersistError::TooLarge { what, len } => {
                write!(f, "{what} {len} does not fit the format's u32")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<StorageError> for PersistError {
    fn from(e: StorageError) -> Self {
        PersistError::Storage(e)
    }
}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        PersistError::Codec(e)
    }
}

/// Fully validates one framed snapshot — frame checksum, then the full
/// or delta payload decode — without loading it anywhere. The
/// fuzz-facing entry point: for *any* byte string this returns `Ok` or
/// `Err`, it never panics and never accepts a malformed payload.
///
/// # Errors
///
/// The [`CodecError`] describing the first defect found.
pub fn validate_snapshot_frame(bytes: &[u8]) -> Result<(), CodecError> {
    let (kind, payload) = codec::open_frame(bytes)?;
    match kind {
        codec::KIND_SNAPSHOT_FULL => snapshot::decode_full(payload).map(|_| ()),
        codec::KIND_SNAPSHOT_DELTA => snapshot::decode_delta(payload).map(|_| ()),
        other => Err(CodecError::BadKind(other)),
    }
}

/// Decodes the longest valid prefix of a journal segment, returning
/// `(records, valid_bytes)`. Like
/// [`validate_snapshot_frame`](validate_snapshot_frame) this never
/// panics: a torn, garbled, or sequence-gapped tail simply bounds the
/// prefix.
pub fn journal_valid_prefix(bytes: &[u8]) -> (usize, usize) {
    let prefix = journal::decode_segment(bytes);
    (prefix.ops.len(), prefix.valid_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_length_past_u32_is_refused_not_wrapped() {
        let max = u32::MAX as usize;
        assert_eq!(fit_u32("snapshot payload", max), Ok(u32::MAX));
        assert_eq!(
            fit_u32("snapshot payload", max + 1),
            Err(PersistError::TooLarge {
                what: "snapshot payload",
                len: max + 1,
            })
        );
        // 38 M devices at ~114 bytes each is where a payload crosses it.
        assert!(fit_u32("device count", 38_000_000).is_ok());
    }
}
