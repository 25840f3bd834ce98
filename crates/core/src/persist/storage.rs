//! Storage backends for the durability layer, plus deterministic
//! storage-fault injection.
//!
//! The chain manager talks to a [`StorageBackend`] — a tiny flat-file
//! abstraction (named blobs, atomic whole-file writes, appends, and a
//! batched append that defaults to one append per record). Three
//! implementations ship:
//!
//! - [`MemStorage`]: a deterministic in-memory map, the test and
//!   simulation default;
//! - [`DirStorage`]: a directory of real files, for the CLI and the live
//!   server; it keeps the file it last appended to open;
//! - [`FaultingStorage`]: a wrapper that applies a seeded
//!   [`StorageFaultPlan`] (torn writes, truncation, bit flips, dropped
//!   writes, disk-full) to whatever it wraps, in the spirit of the
//!   network-side `FaultInjector` — same seed, same faults, every run.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::PathBuf;

use senseaid_sim::SimRng;

/// Why a storage operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// No blob with that name exists.
    NotFound,
    /// The backend's capacity budget is exhausted (disk full).
    Full,
    /// An underlying I/O failure (real filesystems only).
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound => write!(f, "not found"),
            StorageError::Full => write!(f, "storage full"),
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// What an [`append_batch`](StorageBackend::append_batch) landed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchAppended {
    /// Records the backend accepted.
    pub records: u64,
    /// Their bytes.
    pub bytes: u64,
}

/// A flat namespace of named byte blobs. `write` replaces the whole blob
/// atomically; `append` extends it (creating it if absent). Implementors
/// must keep `list` deterministic (sorted by name).
pub trait StorageBackend: fmt::Debug + Send {
    /// Atomically replaces `name` with `bytes`.
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;
    /// Appends `bytes` to `name`, creating it if absent.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError>;
    /// Appends a run of records to `name`: record `i` is
    /// `bytes[ends[i - 1]..ends[i]]` (from `0` for the first), and
    /// `ends` is ascending with its last entry `bytes.len()`. Returns
    /// what was accepted.
    ///
    /// The default is one [`append`](Self::append) per record, in order,
    /// refusals counted record by record — so a wrapper that only knows
    /// `append` (fault injection, timing) sees exactly the calls it would
    /// have seen without batching. A backend that can land the run in
    /// one operation overrides this; it then accepts or refuses the run
    /// as a whole.
    fn append_batch(&mut self, name: &str, bytes: &[u8], ends: &[usize]) -> BatchAppended {
        let mut landed = BatchAppended::default();
        let mut start = 0;
        for &end in ends {
            if self.append(name, &bytes[start..end]).is_ok() {
                landed.records += 1;
                landed.bytes += (end - start) as u64;
            }
            start = end;
        }
        landed
    }
    /// Reads the whole blob.
    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError>;
    /// All blob names, sorted.
    fn list(&self) -> Result<Vec<String>, StorageError>;
    /// Removes a blob (idempotent: absent is fine).
    fn remove(&mut self, name: &str) -> Result<(), StorageError>;
}

// ---------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------

/// Deterministic in-memory storage. The default backend for tests and
/// simulation runs; also exposes raw mutation hooks so tests can corrupt
/// blobs surgically.
#[derive(Debug, Default)]
pub struct MemStorage {
    blobs: BTreeMap<String, Vec<u8>>,
}

impl MemStorage {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes held across all blobs.
    pub fn total_bytes(&self) -> u64 {
        self.blobs.values().map(|b| b.len() as u64).sum()
    }

    /// Raw bytes of a blob, for test inspection.
    pub fn raw(&self, name: &str) -> Option<&[u8]> {
        self.blobs.get(name).map(Vec::as_slice)
    }

    /// XORs the byte at `offset` with `mask` (test corruption hook).
    pub fn corrupt(&mut self, name: &str, offset: usize, mask: u8) {
        if let Some(blob) = self.blobs.get_mut(name) {
            if let Some(b) = blob.get_mut(offset) {
                *b ^= mask;
            }
        }
    }

    /// Truncates a blob to `len` bytes (test corruption hook).
    pub fn truncate(&mut self, name: &str, len: usize) {
        if let Some(blob) = self.blobs.get_mut(name) {
            blob.truncate(len);
        }
    }
}

impl StorageBackend for MemStorage {
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.blobs.insert(name.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.blobs
            .entry(name.to_owned())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.blobs.get(name).cloned().ok_or(StorageError::NotFound)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        Ok(self.blobs.keys().cloned().collect())
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.blobs.remove(name);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Directory backend
// ---------------------------------------------------------------------

/// A directory of real files, one per blob. Writes go through a temp file
/// plus rename so a crash mid-write can tear an *append* but never a
/// whole-file `write`. Used by `senseaid recover` and `senseaid serve`.
///
/// The file last appended to (the current journal segment) stays open,
/// so an append is one `write(2)`. Nothing is buffered in user space:
/// every accepted byte is in the kernel when the call returns, which is
/// what survives a process kill. Nothing is `fsync`ed, so power loss is
/// not covered.
#[derive(Debug)]
pub struct DirStorage {
    dir: PathBuf,
    /// The open append handle and the name it belongs to. `write` and
    /// `remove` of that name drop it: both leave the handle pointing at
    /// an unlinked inode.
    appending: Option<(String, File)>,
}

impl DirStorage {
    /// Opens (creating if needed) the directory at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StorageError::Io(e.to_string()))?;
        Ok(DirStorage {
            dir,
            appending: None,
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn release(&mut self, name: &str) {
        if self
            .appending
            .as_ref()
            .is_some_and(|(held, _)| held == name)
        {
            self.appending = None;
        }
    }
}

impl StorageBackend for DirStorage {
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.release(name);
        let tmp = self.path(&format!("{name}.tmp"));
        std::fs::write(&tmp, bytes).map_err(|e| StorageError::Io(e.to_string()))?;
        std::fs::rename(&tmp, self.path(name)).map_err(|e| StorageError::Io(e.to_string()))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let file = match &mut self.appending {
            Some((held, file)) if held == name => file,
            slot => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.dir.join(name))
                    .map_err(|e| StorageError::Io(e.to_string()))?;
                &mut slot.insert((name.to_owned(), file)).1
            }
        };
        let written = file.write_all(bytes);
        if written.is_err() {
            // Whatever state the handle is in, the next append starts
            // from a fresh open.
            self.appending = None;
        }
        written.map_err(|e| StorageError::Io(e.to_string()))
    }

    fn append_batch(&mut self, name: &str, bytes: &[u8], ends: &[usize]) -> BatchAppended {
        match self.append(name, bytes) {
            Ok(()) => BatchAppended {
                records: ends.len() as u64,
                bytes: bytes.len() as u64,
            },
            Err(_) => BatchAppended::default(),
        }
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StorageError::NotFound),
            Err(e) => Err(StorageError::Io(e.to_string())),
        }
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(|e| StorageError::Io(e.to_string()))?;
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::Io(e.to_string()))?;
            if let Ok(name) = entry.file_name().into_string() {
                if !name.ends_with(".tmp") {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.release(name);
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StorageError::Io(e.to_string())),
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// A deterministic plan of storage faults. All chances are per-operation
/// probabilities in `[0, 1]`, drawn from a seeded [`SimRng`]: the same
/// plan over the same operation sequence injects the same faults.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageFaultPlan {
    /// RNG seed for fault placement.
    pub seed: u64,
    /// Chance a write/append lands only a prefix of its bytes.
    pub torn_write_chance: f64,
    /// Chance a write/append loses its tail (up to 64 bytes chopped).
    pub truncate_chance: f64,
    /// Chance one random bit of a write/append is flipped.
    pub bit_flip_chance: f64,
    /// Chance a whole-file write is silently dropped, leaving the stale
    /// previous generation in place.
    pub drop_write_chance: f64,
    /// Total byte budget; once cumulative written bytes exceed it, every
    /// further write fails with [`StorageError::Full`].
    pub disk_full_after: Option<u64>,
}

impl StorageFaultPlan {
    /// A plan that injects nothing (baseline).
    pub fn none(seed: u64) -> Self {
        StorageFaultPlan {
            seed,
            torn_write_chance: 0.0,
            truncate_chance: 0.0,
            bit_flip_chance: 0.0,
            drop_write_chance: 0.0,
            disk_full_after: None,
        }
    }

    /// A named preset for the corruption matrix: `torn-write`,
    /// `truncate`, `bit-flip`, `stale`, `disk-full`, `mixed`, or `none`.
    pub fn preset(kind: &str, seed: u64) -> Option<Self> {
        let mut plan = Self::none(seed);
        match kind {
            "none" => {}
            "torn-write" => plan.torn_write_chance = 0.25,
            "truncate" => plan.truncate_chance = 0.25,
            "bit-flip" => plan.bit_flip_chance = 0.25,
            "stale" => plan.drop_write_chance = 0.25,
            "disk-full" => plan.disk_full_after = Some(64 * 1024),
            "mixed" => {
                plan.torn_write_chance = 0.10;
                plan.truncate_chance = 0.10;
                plan.bit_flip_chance = 0.10;
                plan.drop_write_chance = 0.10;
            }
            _ => return None,
        }
        Some(plan)
    }
}

/// Counts of faults actually injected, for reports and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Writes that landed only a prefix.
    pub torn: u64,
    /// Writes that lost their tail.
    pub truncated: u64,
    /// Writes with one bit flipped.
    pub flipped: u64,
    /// Whole-file writes silently dropped.
    pub dropped: u64,
    /// Writes refused with `Full`.
    pub full_rejections: u64,
}

impl FaultTally {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.torn + self.truncated + self.flipped + self.dropped + self.full_rejections
    }
}

/// Wraps a backend and applies a [`StorageFaultPlan`] to every write and
/// append. Reads pass through untouched — corruption happens on the way
/// to "disk", exactly once, deterministically.
#[derive(Debug)]
pub struct FaultingStorage {
    inner: Box<dyn StorageBackend>,
    plan: StorageFaultPlan,
    rng: SimRng,
    written: u64,
    tally: FaultTally,
}

impl FaultingStorage {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: Box<dyn StorageBackend>, plan: StorageFaultPlan) -> Self {
        let rng = SimRng::from_seed(plan.seed);
        FaultingStorage {
            inner,
            plan,
            rng,
            written: 0,
            tally: FaultTally::default(),
        }
    }

    /// Faults injected so far.
    pub fn tally(&self) -> FaultTally {
        self.tally
    }

    /// Unwraps the inner backend (e.g. to recover against pristine reads
    /// of whatever corrupt bytes made it to disk).
    pub fn into_inner(self) -> Box<dyn StorageBackend> {
        self.inner
    }

    /// Applies the plan to one outgoing buffer. Returns `None` when the
    /// write is dropped entirely, `Err` when the disk is full.
    fn mangle(&mut self, bytes: &[u8], whole_file: bool) -> Result<Option<Vec<u8>>, StorageError> {
        if let Some(budget) = self.plan.disk_full_after {
            if self.written + bytes.len() as u64 > budget {
                self.tally.full_rejections += 1;
                return Err(StorageError::Full);
            }
        }
        self.written += bytes.len() as u64;
        // One fault class per operation, checked in a fixed order so the
        // RNG stream is stable.
        if whole_file && self.rng.chance(self.plan.drop_write_chance) {
            self.tally.dropped += 1;
            return Ok(None);
        }
        if self.rng.chance(self.plan.torn_write_chance) && !bytes.is_empty() {
            self.tally.torn += 1;
            let keep = self.rng.uniform_usize(0, bytes.len());
            return Ok(Some(bytes[..keep].to_vec()));
        }
        if self.rng.chance(self.plan.truncate_chance) && !bytes.is_empty() {
            self.tally.truncated += 1;
            let chop = 1 + self.rng.uniform_usize(0, bytes.len().min(64));
            return Ok(Some(bytes[..bytes.len() - chop.min(bytes.len())].to_vec()));
        }
        if self.rng.chance(self.plan.bit_flip_chance) && !bytes.is_empty() {
            self.tally.flipped += 1;
            let mut out = bytes.to_vec();
            let at = self.rng.uniform_usize(0, out.len());
            let bit = self.rng.uniform_usize(0, 8);
            out[at] ^= 1 << bit;
            return Ok(Some(out));
        }
        Ok(Some(bytes.to_vec()))
    }
}

impl StorageBackend for FaultingStorage {
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        match self.mangle(bytes, true)? {
            Some(out) => self.inner.write(name, &out),
            None => Ok(()),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), StorageError> {
        match self.mangle(bytes, false)? {
            Some(out) => self.inner.append(name, &out),
            None => Ok(()),
        }
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(name)
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.inner.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trips_and_lists_sorted() {
        let mut s = MemStorage::new();
        s.write("b", b"two").unwrap();
        s.write("a", b"one").unwrap();
        s.append("a", b"!").unwrap();
        assert_eq!(s.read("a").unwrap(), b"one!");
        assert_eq!(s.list().unwrap(), vec!["a".to_owned(), "b".to_owned()]);
        s.remove("a").unwrap();
        assert_eq!(s.read("a"), Err(StorageError::NotFound));
    }

    /// A fresh directory under the system temp dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("senseaid-dirstorage-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn dir_appends_are_visible_without_any_flush() {
        let tmp = TempDir::new("visible");
        let mut s = DirStorage::open(&tmp.0).unwrap();
        s.append("journal-1", b"one").unwrap();
        s.append("journal-1", b"two").unwrap();
        // The handle is still open, and both the backend's own reads and
        // an independent reader see every byte.
        assert_eq!(s.read("journal-1").unwrap(), b"onetwo");
        assert_eq!(s.list().unwrap(), vec!["journal-1".to_owned()]);
        let other = DirStorage::open(&tmp.0).unwrap();
        assert_eq!(other.read("journal-1").unwrap(), b"onetwo");
    }

    #[test]
    fn dir_write_replaces_the_file_under_a_held_handle() {
        let tmp = TempDir::new("rotate");
        let mut s = DirStorage::open(&tmp.0).unwrap();
        s.append("journal-1", b"old generation").unwrap();
        // What `write_generation` does to open a segment.
        s.write("journal-1", b"").unwrap();
        s.append("journal-1", b"new").unwrap();
        assert_eq!(
            s.read("journal-1").unwrap(),
            b"new",
            "the append went to the unlinked file the old handle pointed at"
        );
    }

    #[test]
    fn dir_remove_drops_the_held_handle() {
        let tmp = TempDir::new("remove");
        let mut s = DirStorage::open(&tmp.0).unwrap();
        s.append("journal-1", b"gone").unwrap();
        s.remove("journal-1").unwrap();
        assert_eq!(s.read("journal-1"), Err(StorageError::NotFound));
        s.append("journal-1", b"back").unwrap();
        assert_eq!(s.read("journal-1").unwrap(), b"back");
    }

    #[test]
    fn dir_interleaved_appends_to_two_names_all_land() {
        let tmp = TempDir::new("interleave");
        let mut s = DirStorage::open(&tmp.0).unwrap();
        for i in 0..10u8 {
            s.append("a", &[i]).unwrap();
            s.append("b", &[100 + i]).unwrap();
        }
        assert_eq!(s.read("a").unwrap(), (0..10).collect::<Vec<u8>>());
        assert_eq!(s.read("b").unwrap(), (100..110).collect::<Vec<u8>>());
    }

    #[test]
    fn batched_append_lands_the_same_bytes_on_every_backend() {
        let tmp = TempDir::new("batch");
        let records: [&[u8]; 3] = [b"first", b"", b"third record"];
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for r in records {
            bytes.extend_from_slice(r);
            ends.push(bytes.len());
        }
        let all = BatchAppended {
            records: 3,
            bytes: bytes.len() as u64,
        };
        let mut mem = MemStorage::new();
        let mut dir = DirStorage::open(&tmp.0).unwrap();
        for s in [&mut mem as &mut dyn StorageBackend, &mut dir] {
            s.append("j", b"head:").unwrap();
            assert_eq!(s.append_batch("j", &bytes, &ends), all);
            assert_eq!(s.read("j").unwrap(), b"head:firstthird record");
        }
    }

    /// A wrapper that does not know about batches sees one `append` per
    /// record: the fault RNG stream, and so every mangled byte, is what
    /// record-by-record appends produce, and refusals are counted per
    /// record.
    #[test]
    fn batched_append_through_a_wrapper_is_one_append_per_record() {
        let records: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 30 + i as usize]).collect();
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for r in &records {
            bytes.extend_from_slice(r);
            ends.push(bytes.len());
        }
        for preset in ["mixed", "torn-write", "disk-full"] {
            let mut plan = StorageFaultPlan::preset(preset, 9).unwrap();
            if preset == "disk-full" {
                plan.disk_full_after = Some(1_000);
            }
            let mut one_by_one = FaultingStorage::new(Box::new(MemStorage::new()), plan.clone());
            let mut accepted = BatchAppended::default();
            for r in &records {
                if one_by_one.append("j", r).is_ok() {
                    accepted.records += 1;
                    accepted.bytes += r.len() as u64;
                }
            }
            let mut batched = FaultingStorage::new(Box::new(MemStorage::new()), plan);
            assert_eq!(
                batched.append_batch("j", &bytes, &ends),
                accepted,
                "{preset}"
            );
            assert_eq!(batched.tally(), one_by_one.tally(), "{preset}");
            assert_eq!(batched.read("j"), one_by_one.read("j"), "{preset}");
            assert!(one_by_one.tally().total() > 0, "{preset} injected nothing");
        }
    }

    #[test]
    fn fault_plans_are_deterministic() {
        let run = || {
            let plan = StorageFaultPlan::preset("mixed", 42).unwrap();
            let mut s = FaultingStorage::new(Box::new(MemStorage::new()), plan);
            for i in 0..50 {
                let _ = s.write(&format!("blob-{i}"), &[i as u8; 100]);
                let _ = s.append("log", &[i as u8; 40]);
            }
            let tally = s.tally();
            let inner = s.into_inner();
            (tally, inner.read("log").ok(), inner.list().unwrap().len())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must inject the same faults");
        assert!(a.0.total() > 0, "mixed plan must actually inject");
    }

    #[test]
    fn disk_full_budget_rejects_past_the_line() {
        let plan = StorageFaultPlan::preset("disk-full", 7).unwrap();
        let mut s = FaultingStorage::new(Box::new(MemStorage::new()), plan);
        let chunk = vec![0u8; 16 * 1024];
        assert!(s.write("a", &chunk).is_ok());
        assert!(s.write("b", &chunk).is_ok());
        assert!(s.write("c", &chunk).is_ok());
        assert!(s.write("d", &chunk).is_ok());
        assert_eq!(s.write("e", &chunk), Err(StorageError::Full));
        assert!(s.tally().full_rejections >= 1);
    }

    #[test]
    fn dropped_writes_leave_the_stale_blob() {
        let mut plan = StorageFaultPlan::none(3);
        plan.drop_write_chance = 1.0;
        let mut base = MemStorage::new();
        base.write("gen", b"old").unwrap();
        let mut s = FaultingStorage::new(Box::new(base), plan);
        s.write("gen", b"new").unwrap();
        assert_eq!(s.read("gen").unwrap(), b"old", "stale generation survives");
        assert_eq!(s.tally().dropped, 1);
    }
}
