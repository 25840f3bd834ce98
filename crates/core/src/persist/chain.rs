//! The snapshot generation chain, the manifest, and recovery.
//!
//! Each persisted snapshot is one immutable file `snap-<gen>` — every
//! `full_every`-th a full encoding, the rest deltas against the previous
//! generation. Old generations are *retained*, which is what gives
//! recovery a ladder to fall down: if the newest generation is corrupt
//! (or its delta base is), recovery demotes to the next older candidate
//! until something validates end to end. A `MANIFEST` file (itself
//! framed and checksummed) lists the chain; when the manifest is corrupt
//! or stale, recovery falls back to scanning `snap-*` file names, so the
//! manifest is an accelerator, never a single point of failure.
//!
//! Between snapshots, mutations append to `journal-<gen>` (the journal
//! segment opened when generation `gen` was persisted). Recovery replays
//! segments from the loaded generation upward, enforcing global sequence
//! continuity — the first gap or garbled record ends replay, and
//! everything after it is reported as dropped bytes, never guessed at.
//!
//! After a recovery, the next generation written is strictly greater
//! than every generation ever *seen* (including corrupt ones), so a
//! recovered server can never overwrite evidence or collide with a
//! half-written file.

use std::collections::BTreeSet;

use senseaid_sim::SimTime;

use crate::coordinator::{ControlSnapshot, ControlView, SnapshotDelta};

use super::codec::{
    begin_frame, end_frame, open_frame, open_frame_len, seal_frame, ByteReader, ByteWriter,
    CodecError, FRAME_OVERHEAD, KIND_MANIFEST, KIND_SNAPSHOT_DELTA, KIND_SNAPSHOT_FULL,
};
use super::journal::{decode_segment, encode_record_into, JournalOp};
use super::snapshot::{apply_delta, decode_delta, decode_full, write_delta, write_full};
use super::storage::StorageBackend;
use super::{fit_u32, PersistConfig, PersistError};

/// The manifest file name.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST";

pub(crate) fn snap_name(gen: u64) -> String {
    format!("snap-{gen:08}")
}

pub(crate) fn journal_name(gen: u64) -> String {
    format!("journal-{gen:08}")
}

fn parse_gen(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.parse().ok()
}

/// One manifest row: a generation, its snapshot kind, and (for deltas)
/// the generation it applies on top of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ManifestEntry {
    pub(crate) gen: u64,
    pub(crate) kind: u8,
    pub(crate) base_gen: u64,
}

fn encode_manifest(entries: &[ManifestEntry]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(u32::try_from(entries.len()).expect("manifest entries must fit in u32"));
    for e in entries {
        w.put_u64(e.gen);
        w.put_u8(e.kind);
        w.put_u64(e.base_gen);
    }
    seal_frame(KIND_MANIFEST, &w.into_bytes())
}

fn decode_manifest(bytes: &[u8]) -> Result<Vec<ManifestEntry>, CodecError> {
    let payload = super::codec::open_frame_expecting(bytes, KIND_MANIFEST)?;
    let mut r = ByteReader::new(payload);
    let n = r.take_count(17)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(ManifestEntry {
            gen: r.take_u64()?,
            kind: r.take_u8()?,
            base_gen: r.take_u64()?,
        });
    }
    if !r.is_exhausted() {
        return Err(CodecError::Malformed("trailing bytes after manifest"));
    }
    Ok(entries)
}

/// Bytes to reserve for a full snapshot of `devices` devices: a record
/// with one sensor and an eight-byte type name is 112 bytes, and the
/// request-scale sections are small beside the device section. Only a
/// hint — a population with longer records grows the buffer once.
fn full_snapshot_reserve(devices: usize) -> usize {
    FRAME_OVERHEAD + 4096 + devices.saturating_mul(128)
}

/// Builds one snapshot frame in place: opens it at the start of a buffer
/// reserved for `reserve` bytes, lets `fill` append the payload, checks
/// the payload against the header's `u32` and seals it. No second copy of
/// the payload is ever made.
fn build_frame(
    kind: u8,
    reserve: usize,
    fill: impl FnOnce(&mut ByteWriter) -> Result<(), PersistError>,
) -> Result<Vec<u8>, PersistError> {
    let mut frame = Vec::with_capacity(reserve);
    let start = begin_frame(&mut frame, kind);
    let mut w = ByteWriter::from_vec(frame);
    fill(&mut w)?;
    let mut frame = w.into_bytes();
    fit_u32("snapshot payload", open_frame_len(&frame, start))?;
    end_frame(&mut frame, start);
    Ok(frame)
}

/// Write-side persistence counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Full snapshots persisted.
    pub snapshots_full: u64,
    /// Delta snapshots persisted.
    pub snapshots_delta: u64,
    /// Encoded size of the most recent snapshot, bytes.
    pub snapshot_bytes_last: u64,
    /// Total snapshot bytes written.
    pub snapshot_bytes_total: u64,
    /// Journal records appended successfully.
    pub journal_records: u64,
    /// Journal bytes appended successfully.
    pub journal_bytes: u64,
    /// Journal records the backend refused (the sequence number is still
    /// consumed, so replay stops truthfully at the gap). A refused
    /// one-write commit counts every record it carried.
    /// `journal_records + append_failures` is the count of sequence
    /// numbers that have been committed.
    pub append_failures: u64,
    /// Snapshots that did not land — refused by the backend, or too
    /// large for the format (the generation is not advanced; dirty state
    /// is kept for the next attempt).
    pub snapshot_write_failures: u64,
}

/// The write side of the persistence layer: owns the storage backend,
/// the generation counter, the manifest, and the journal sequence.
#[derive(Debug)]
pub struct Persistor {
    storage: Box<dyn StorageBackend>,
    config: PersistConfig,
    generation: u64,
    entries: Vec<ManifestEntry>,
    journal_file: String,
    journal_seq: u64,
    /// Encoded records not yet handed to storage, back to back, and the
    /// end offset of each. Empty between calls unless `held`.
    pending: Vec<u8>,
    pending_ends: Vec<usize>,
    /// Inside a [`hold`](Self::hold) / [`commit`](Self::commit) bracket:
    /// appends stay in `pending` until the commit.
    held: bool,
    since_full: u32,
    stats: PersistStats,
}

impl Persistor {
    /// Creates a persistor by writing an initial full snapshot at a
    /// generation strictly greater than anything already in `storage`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Storage`] when the initial snapshot cannot be
    /// written (e.g. the backend is full), [`PersistError::TooLarge`]
    /// when the state outgrew the format.
    pub(crate) fn initialise(
        storage: Box<dyn StorageBackend>,
        config: PersistConfig,
        state: &ControlView<'_>,
        journal_seq: u64,
    ) -> Result<Self, PersistError> {
        let config = PersistConfig {
            full_every: config.full_every.max(1),
        };
        let max_seen = scan_max_generation(storage.as_ref());
        let generation = max_seen + 1;
        let entries = match storage.read(MANIFEST_NAME) {
            Ok(bytes) => decode_manifest(&bytes)
                .map(|mut es| {
                    es.retain(|e| e.gen < generation);
                    es
                })
                .unwrap_or_default(),
            Err(_) => Vec::new(),
        };
        let mut p = Persistor {
            storage,
            config,
            generation,
            entries,
            journal_file: journal_name(generation),
            journal_seq,
            pending: Vec::new(),
            pending_ends: Vec::new(),
            held: false,
            since_full: 0,
            stats: PersistStats::default(),
        };
        p.write_full_generation(generation, state)?;
        Ok(p)
    }

    /// The generation of the most recently persisted snapshot.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The next journal sequence number to be assigned.
    pub fn journal_seq(&self) -> u64 {
        self.journal_seq
    }

    /// Write-side counters.
    pub fn stats(&self) -> PersistStats {
        self.stats
    }

    /// Whether the *next* snapshot must be a full one (the delta chain
    /// has reached `full_every`).
    pub(crate) fn wants_full(&self) -> bool {
        self.since_full + 1 >= self.config.full_every
    }

    /// Hands the storage backend back (crash simulation: the "disk"
    /// survives the process), pending records written first.
    pub(crate) fn into_storage(mut self) -> Box<dyn StorageBackend> {
        self.commit();
        self.storage
    }

    /// The configuration this persistor was initialised with.
    pub(crate) fn config(&self) -> PersistConfig {
        self.config
    }

    fn write_generation(
        &mut self,
        gen: u64,
        kind: u8,
        base_gen: u64,
        reserve: usize,
        fill: impl FnOnce(&mut ByteWriter) -> Result<(), PersistError>,
    ) -> Result<u64, PersistError> {
        // Held records precede this snapshot's watermark: they belong to
        // the segment being closed, not the one about to open.
        self.write_pending();
        let written = build_frame(kind, reserve, fill).and_then(|frame| {
            self.storage.write(&snap_name(gen), &frame)?;
            Ok(frame.len() as u64)
        });
        let bytes = match written {
            Ok(bytes) => bytes,
            Err(e) => {
                self.stats.snapshot_write_failures += 1;
                return Err(e);
            }
        };
        self.entries.push(ManifestEntry {
            gen,
            kind,
            base_gen,
        });
        // Manifest and journal-rotation failures are tolerated: recovery
        // falls back to scanning snap files, and a missing journal
        // segment just bounds replay at the previous generation.
        let _ = self
            .storage
            .write(MANIFEST_NAME, &encode_manifest(&self.entries));
        self.generation = gen;
        self.journal_file = journal_name(gen);
        let _ = self.storage.write(&self.journal_file, &[]);
        if kind == KIND_SNAPSHOT_FULL {
            self.since_full = 0;
            self.stats.snapshots_full += 1;
        } else {
            self.since_full += 1;
            self.stats.snapshots_delta += 1;
        }
        self.stats.snapshot_bytes_last = bytes;
        self.stats.snapshot_bytes_total += bytes;
        Ok(bytes)
    }

    /// Persists a full snapshot as the next generation. Returns the
    /// framed size in bytes.
    ///
    /// # Errors
    ///
    /// [`PersistError::Storage`] when the backend refuses the write,
    /// [`PersistError::TooLarge`] when the state outgrew the format; the
    /// generation does not advance.
    pub(crate) fn persist_full(&mut self, state: &ControlView<'_>) -> Result<u64, PersistError> {
        self.write_full_generation(self.generation + 1, state)
    }

    /// Writes `state` as full generation `gen`, watermarked with the next
    /// journal sequence number.
    fn write_full_generation(
        &mut self,
        gen: u64,
        state: &ControlView<'_>,
    ) -> Result<u64, PersistError> {
        let journal_seq = self.journal_seq;
        let reserve = full_snapshot_reserve(state.device_count());
        self.write_generation(gen, KIND_SNAPSHOT_FULL, 0, reserve, |w| {
            write_full(w, state, journal_seq)
        })
    }

    /// Persists a delta snapshot against the current generation. Returns
    /// the framed size in bytes.
    ///
    /// # Errors
    ///
    /// [`PersistError::Storage`] when the backend refuses the write; the
    /// generation does not advance.
    pub(crate) fn persist_delta(&mut self, delta: &SnapshotDelta) -> Result<u64, PersistError> {
        let base_gen = self.generation;
        let gen = self.generation + 1;
        let journal_seq = self.journal_seq;
        self.write_generation(gen, KIND_SNAPSHOT_DELTA, base_gen, 0, |w| {
            write_delta(w, delta, base_gen, journal_seq);
            Ok(())
        })
    }

    /// Appends one journaled op, consuming the next sequence number
    /// whether or not the backend accepts the bytes — a failed append
    /// must leave a *gap*, so replay stops there instead of silently
    /// skipping a mutation. The record goes to storage before this
    /// returns unless a [`hold`](Self::hold) is open.
    pub(crate) fn append_op(&mut self, op: &JournalOp) -> u64 {
        let seq = self.journal_seq;
        self.journal_seq += 1;
        encode_record_into(&mut self.pending, seq, op);
        self.pending_ends.push(self.pending.len());
        if !self.held {
            self.write_pending();
        }
        seq
    }

    /// Opens a bracket in which appended records wait in memory; the
    /// matching [`commit`](Self::commit) hands them to storage together.
    /// Only a caller that owns the point where effects leave the process
    /// (the live server's hand-off of response frames) should hold, and
    /// it must commit before that point.
    pub(crate) fn hold(&mut self) {
        self.held = true;
    }

    /// Closes the bracket: everything pending goes to storage as one
    /// batch, and later appends are written through again.
    pub(crate) fn commit(&mut self) {
        self.held = false;
        self.write_pending();
    }

    fn write_pending(&mut self) {
        if self.pending_ends.is_empty() {
            return;
        }
        let landed =
            self.storage
                .append_batch(&self.journal_file, &self.pending, &self.pending_ends);
        self.stats.journal_records += landed.records;
        self.stats.journal_bytes += landed.bytes;
        self.stats.append_failures += self.pending_ends.len() as u64 - landed.records;
        self.pending.clear();
        self.pending_ends.clear();
    }
}

/// The highest generation number any file in `storage` refers to — the
/// floor for the next generation written.
pub(crate) fn scan_max_generation(storage: &dyn StorageBackend) -> u64 {
    let mut max = 0;
    for name in storage.list().unwrap_or_default() {
        if let Some(g) = parse_gen(&name, "snap-").or_else(|| parse_gen(&name, "journal-")) {
            max = max.max(g);
        }
    }
    if let Ok(bytes) = storage.read(MANIFEST_NAME) {
        if let Ok(entries) = decode_manifest(&bytes) {
            for e in entries {
                max = max.max(e.gen);
            }
        }
    }
    max
}

/// What recovery found on disk: the newest intact state, the validated
/// journal suffix to replay onto it, and an honest account of everything
/// that had to be skipped.
#[derive(Debug, Clone)]
pub(crate) struct ChainRecovery {
    /// The newest snapshot state that validated end to end, with its
    /// journal watermark and generation. `None` when nothing on disk
    /// survived — the caller must cold-start.
    pub(crate) state: Option<(ControlSnapshot, u64, u64)>,
    /// The journal ops to replay onto the state, already
    /// continuity-checked.
    pub(crate) ops: Vec<JournalOp>,
    /// Generations that failed validation (corrupt frame, bad delta
    /// base, missing file listed in the manifest).
    pub(crate) corrupt_generations: Vec<u64>,
    /// Journal bytes that could not be replayed (torn, garbled, or
    /// stranded behind a sequence gap).
    pub(crate) journal_bytes_dropped: u64,
    /// The highest generation number seen anywhere, corrupt or not.
    pub(crate) max_generation_seen: u64,
}

/// Walks one candidate generation down to its full ancestor and folds
/// the deltas back up. On any failure the *failing* generation is
/// recorded and the candidate is abandoned.
fn load_candidate(
    storage: &dyn StorageBackend,
    candidate: u64,
    corrupt: &mut BTreeSet<u64>,
) -> Option<(ControlSnapshot, u64)> {
    let mut deltas = Vec::new();
    let mut gen = candidate;
    let full = loop {
        let bytes = match storage.read(&snap_name(gen)) {
            Ok(b) => b,
            Err(_) => {
                corrupt.insert(gen);
                return None;
            }
        };
        let (kind, payload) = match open_frame(&bytes) {
            Ok(x) => x,
            Err(_) => {
                corrupt.insert(gen);
                return None;
            }
        };
        if kind == KIND_SNAPSHOT_FULL {
            match decode_full(payload) {
                Ok(full) => break full,
                Err(_) => {
                    corrupt.insert(gen);
                    return None;
                }
            }
        } else if kind == KIND_SNAPSHOT_DELTA {
            match decode_delta(payload) {
                // Strictly-decreasing base generations guarantee the walk
                // terminates even against a hostile chain.
                Ok(d) if d.base_gen < gen => {
                    gen = d.base_gen;
                    deltas.push(d);
                }
                _ => {
                    corrupt.insert(gen);
                    return None;
                }
            }
        } else {
            corrupt.insert(gen);
            return None;
        }
    };
    let mut state = full.snapshot;
    let mut watermark = full.journal_seq;
    for d in deltas.into_iter().rev() {
        match apply_delta(state, d.delta) {
            Ok(next) => {
                state = next;
                watermark = d.journal_seq;
            }
            Err(_) => {
                corrupt.insert(candidate);
                return None;
            }
        }
    }
    Some((state, watermark))
}

/// Recovers the newest intact state from `storage`: resolve the snapshot
/// chain newest-first, then collect the continuity-checked journal
/// suffix. Never panics; never returns corrupt state.
pub(crate) fn recover_chain(storage: &dyn StorageBackend) -> ChainRecovery {
    let names = storage.list().unwrap_or_default();
    let mut candidates: BTreeSet<u64> =
        names.iter().filter_map(|n| parse_gen(n, "snap-")).collect();
    if let Ok(bytes) = storage.read(MANIFEST_NAME) {
        if let Ok(entries) = decode_manifest(&bytes) {
            candidates.extend(entries.iter().map(|e| e.gen));
        }
    }
    let journal_gens: BTreeSet<u64> = names
        .iter()
        .filter_map(|n| parse_gen(n, "journal-"))
        .collect();
    let max_generation_seen = candidates
        .iter()
        .chain(journal_gens.iter())
        .copied()
        .max()
        .unwrap_or(0);

    let mut corrupt = BTreeSet::new();
    let mut loaded = None;
    for &gen in candidates.iter().rev() {
        if let Some((state, watermark)) = load_candidate(storage, gen, &mut corrupt) {
            loaded = Some((state, watermark, gen));
            break;
        }
    }

    let mut ops = Vec::new();
    let mut dropped = 0u64;
    match &loaded {
        Some((_, watermark, loaded_gen)) => {
            let mut expected = *watermark;
            let mut stopped = false;
            for &jg in journal_gens.iter().filter(|&&g| g >= *loaded_gen) {
                let Ok(bytes) = storage.read(&journal_name(jg)) else {
                    continue;
                };
                if stopped {
                    dropped += bytes.len() as u64;
                    continue;
                }
                let prefix = decode_segment(&bytes);
                let mut applied_end = 0usize;
                for ((seq, op), &end) in prefix.ops.into_iter().zip(prefix.ends.iter()) {
                    if seq != expected {
                        stopped = true;
                        break;
                    }
                    ops.push(op);
                    expected += 1;
                    applied_end = end;
                }
                dropped += (bytes.len() - applied_end) as u64;
                if !stopped && prefix.valid_bytes == bytes.len() {
                    // Whole segment consumed cleanly; `dropped` already
                    // counted zero for it.
                    continue;
                }
                stopped = true;
            }
        }
        None => {
            // Nothing to replay onto: every surviving journal byte is
            // honest loss.
            for &jg in journal_gens.iter() {
                if let Ok(bytes) = storage.read(&journal_name(jg)) {
                    dropped += bytes.len() as u64;
                }
            }
        }
    }

    ChainRecovery {
        state: loaded,
        ops,
        corrupt_generations: corrupt.into_iter().collect(),
        journal_bytes_dropped: dropped,
        max_generation_seen,
    }
}

/// What a recovery did: which generation it loaded, what it had to skip,
/// and what was truthfully lost. Returned by
/// [`SenseAidServer::recover_from_storage`](crate::SenseAidServer::recover_from_storage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The generation whose snapshot was loaded, or `None` on cold start.
    pub loaded_generation: Option<u64>,
    /// The highest generation number seen on disk, corrupt or not. The
    /// next snapshot is written strictly above it.
    pub max_generation_seen: u64,
    /// Generations skipped because their snapshot (or a delta base) was
    /// corrupt or missing.
    pub corrupt_generations: Vec<u64>,
    /// Journal ops replayed onto the loaded snapshot.
    pub ops_replayed: u64,
    /// Journal bytes dropped: torn, garbled, or stranded behind a
    /// sequence gap.
    pub journal_bytes_dropped: u64,
    /// Whether recovery degraded to a cold start (no intact snapshot).
    pub cold_start: bool,
    /// The window of simulated time whose mutations may have been lost,
    /// reported *conservatively* (it may include mutations that did
    /// survive): `None` only when the chain and journal replayed
    /// completely.
    pub lost_window: Option<(SimTime, SimTime)>,
    /// When the recovery ran. Never earlier than
    /// [`durable_horizon`](Self::durable_horizon): a caller-supplied
    /// instant behind the recovered state is clamped forward.
    pub recovered_at: SimTime,
    /// The latest sim instant the recovered state attests to — the
    /// loaded snapshot's capture time or the newest replayed journal
    /// stamp, whichever is later. A restarted live server anchors its
    /// wall clock here so time never runs backwards across a crash.
    pub durable_horizon: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::storage::MemStorage;

    #[test]
    fn generation_names_sort_lexicographically() {
        let mut names: Vec<String> = [9u64, 100, 12, 1].iter().map(|&g| snap_name(g)).collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "snap-00000001",
                "snap-00000009",
                "snap-00000012",
                "snap-00000100"
            ]
        );
        assert_eq!(parse_gen("snap-00000042", "snap-"), Some(42));
        assert_eq!(parse_gen("journal-00000007", "journal-"), Some(7));
        assert_eq!(parse_gen("snap-xx", "snap-"), None);
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let entries = vec![
            ManifestEntry {
                gen: 1,
                kind: KIND_SNAPSHOT_FULL,
                base_gen: 0,
            },
            ManifestEntry {
                gen: 2,
                kind: KIND_SNAPSHOT_DELTA,
                base_gen: 1,
            },
        ];
        let bytes = encode_manifest(&entries);
        assert_eq!(decode_manifest(&bytes).unwrap(), entries);
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(decode_manifest(&bad).is_err());
    }

    #[test]
    fn empty_storage_recovers_to_cold_start() {
        let storage = MemStorage::new();
        let rec = recover_chain(&storage);
        assert!(rec.state.is_none());
        assert!(rec.ops.is_empty());
        assert_eq!(rec.max_generation_seen, 0);
        assert_eq!(rec.journal_bytes_dropped, 0);
    }
}
