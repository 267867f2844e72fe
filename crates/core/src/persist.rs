//! Persistent, content-addressed storage for finished [`RunReport`]s.
//!
//! The in-memory [`ResultCache`](crate::cache::ResultCache) dies with the process,
//! so CLI reruns, CI determinism jobs and iterative figure work re-simulate cells
//! that were already computed bit-identically. This module spills the cache to disk
//! so a rerun is O(file read):
//!
//! * **Canonical serialization** — a versioned, checksummed binary encoding of
//!   [`RunReport`] (including the [`TimeBreakdown`] and the per-attempt log; every
//!   `f64` travels as its IEEE-754 bit pattern, so decode(encode(r)) == r *bitwise*).
//!   [`Enc`]/[`Dec`] and the entry frame ([`seal`]/[`unseal`]) are public: the
//!   explorer's corpus entries use the same code.
//! * **Content addressing** — the [`ExperimentId`] is encoded field-by-field into an
//!   explicit little-endian byte string ([`ExperimentId::canonical_bytes`]) and fed
//!   through an in-tree FNV-1a-128 digest ([`fnv1a128`]). `std::hash::Hasher` is
//!   deliberately *not* used: its default state is not stable across releases or
//!   processes. The full id bytes are also stored in each entry's header and
//!   verified on read, so even a digest collision can only produce a miss, never a
//!   wrong report.
//! * **Crash safety** — writes go through [`atomic_write`] (temp file in the
//!   destination directory, `fsync`, atomic `rename`, `fsync` of the directory),
//!   so a concurrent or crashing process never observes a torn entry. Corrupt,
//!   truncated or version-mismatched files are a silent miss (the cell is
//!   recomputed and the entry rewritten), never a panic.
//! * **Staleness safety** — every entry records the [`source_fingerprint`] of the
//!   simulation stack it was produced by (a build-script hash over the sources of
//!   every crate that influences simulated results). An entry written by a
//!   different build of the simulator is treated as stale and recomputed, so a
//!   cache directory surviving a code change can never serve outdated numbers.
//!
//! Layout under the root (default `target/match-cache`, overridable via
//! [`knobs::CACHE_DIR`]): entries fan out over two directory levels keyed by the
//! leading hex digits of the content address, `root/ab/cd/<32-hex-digest>.rpt`,
//! keeping directories small even for hundred-thousand-entry caches. The
//! [`knobs::CACHE_MAX_MB`] cap enables mtime-LRU garbage collection (a read bumps
//! the entry's mtime, best-effort, at most once a minute, so a warm rerun writes
//! nothing to the store), and switching [`knobs::CACHE`] off disables the disk
//! layer entirely.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use fti::RestoreSource;
use mpisim::{RankStats, SimTime, TimeBreakdown};
use recovery::{AttemptEntry, AttemptSummary, CoveragePath, RecoveryStrategy, Restore, RunReport};

use crate::cache::ExperimentId;
use crate::knobs;

/// Version of the on-disk entry layout. Bumping it silently invalidates every
/// existing entry (old files decode as a stale miss and are rewritten).
/// Version 2: the attempt log records the surviving world size (SHRINK-FTI).
/// Version 3: the attempt log records the recovery-path coverage signal
/// ([`CoveragePath`]) the fault-space explorer steers by.
pub const FORMAT_VERSION: u32 = 3;

/// Magic bytes opening every cache entry.
const MAGIC: [u8; 8] = *b"MATCHRC1";

/// File extension of finished entries; everything else in the tree is a temp file.
const ENTRY_EXT: &str = "rpt";

/// Run GC (when a cap is configured) every this many writes.
const GC_WRITE_PERIOD: u64 = 32;

/// Temp files older than this are leftovers of a crashed writer and are removed
/// by GC sweeps.
const STALE_TEMP_SECS: u64 = 3600;

/// A hit refreshes its entry's mtime (the LRU sweep's recency) only when the
/// mtime is at least this old: a rerun of recent work reads the store without
/// writing to it.
const RECENCY_REFRESH: Duration = Duration::from_secs(60);

/// Host time. Only the mtime-LRU GC reads it: it orders evictions and recency
/// refreshes of entries, and never reaches a report.
#[allow(clippy::disallowed_types, reason = "the LRU GC runs on host mtimes")]
type HostTime = std::time::SystemTime;

/// The build-time fingerprint of every source file that influences simulated
/// results (see `crates/core/build.rs`). Entries produced by a different build of
/// the simulator are stale: bit-identical recall is only guaranteed within one
/// fingerprint.
pub fn source_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        u64::from_str_radix(env!("MATCH_SOURCE_FINGERPRINT"), 16)
            .expect("build script emits a 16-digit hex fingerprint")
    })
}

/// Stable 64-bit FNV-1a over `bytes` (used for entry checksums).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Stable 128-bit FNV-1a over `bytes` (the content-address digest).
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut hash: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b);
    }
    hash
}

/// Little-endian encoder of every binary format: cache entries, ids, genomes.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends 4 little-endian bytes.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends 8 little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` always travels as 8 bytes so 32- and 64-bit builds agree.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Encodes the IEEE-754 bit pattern, preserving every f64 exactly.
    pub(crate) fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Why a cache entry failed to decode. Every variant degrades to a recompute;
/// none of them can panic a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The file ended before the encoding did.
    Truncated,
    /// The magic bytes are not a cache entry's.
    BadMagic,
    /// The entry was written under a different layout version.
    WrongVersion(u32),
    /// The entry was written by a different build of the simulator.
    StaleFingerprint,
    /// The checksum over the entry's bytes does not match.
    BadChecksum,
    /// The entry's stored id differs from the requested one (digest collision
    /// or a file renamed by hand).
    IdMismatch,
    /// A decoded value is outside its domain (e.g. a negative or non-finite
    /// virtual time, an unknown strategy tag).
    BadValue(&'static str),
    /// Bytes remained after the encoding ended.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "entry is truncated"),
            DecodeError::BadMagic => write!(f, "not a cache entry (bad magic)"),
            DecodeError::WrongVersion(v) => write!(f, "entry layout version {v} is not supported"),
            DecodeError::StaleFingerprint => {
                write!(f, "entry was written by a different simulator build")
            }
            DecodeError::BadChecksum => write!(f, "entry checksum mismatch"),
            DecodeError::IdMismatch => write!(f, "entry stores a different experiment id"),
            DecodeError::BadValue(what) => write!(f, "invalid {what}"),
            DecodeError::TrailingBytes => write!(f, "entry has trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

impl DecodeError {
    /// Whether this is an *expected* miss after an upgrade (layout or simulator
    /// changed) rather than on-disk corruption. Stale entries do not count as
    /// read errors in the cache statistics; corrupt ones do.
    pub fn is_stale(&self) -> bool {
        matches!(
            self,
            DecodeError::WrongVersion(_) | DecodeError::StaleFingerprint
        )
    }
}

/// Bounds-checked reader over an [`Enc`] encoding: every read past the end is
/// [`DecodeError::Truncated`], never a panic.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::BadValue("boolean")),
        }
    }

    /// 4 little-endian bytes.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// 8 little-endian bytes.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// An 8-byte `usize` ([`DecodeError::BadValue`] if it does not fit).
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::BadValue("usize"))
    }

    pub(crate) fn f64_bits(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A virtual time: must be finite and non-negative ([`SimTime::from_secs`]
    /// panics otherwise, and a decoder must never panic).
    pub(crate) fn sim_time(&mut self) -> Result<SimTime, DecodeError> {
        let secs = self.f64_bits()?;
        if secs.is_finite() && secs >= 0.0 {
            Ok(SimTime::from_secs(secs))
        } else {
            Err(DecodeError::BadValue("virtual time"))
        }
    }

    /// Ends the read: [`DecodeError::TrailingBytes`] unless every byte was read.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// Frames `body` as `magic | version u32 | body | FNV-1a-64 checksum u64` (over
/// every preceding byte): the envelope of cache and explorer corpus entries.
pub fn seal(magic: &[u8; 8], version: u32, body: &[u8]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.bytes(magic);
    enc.u32(version);
    enc.bytes(body);
    let checksum = fnv1a64(&enc.buf);
    enc.u64(checksum);
    enc.into_bytes()
}

/// The body of a [`seal`]ed entry. Magic and version are checked before the
/// checksum, so an entry of a future layout (which may checksum differently)
/// reads as stale ([`DecodeError::WrongVersion`]), not corrupt.
pub fn unseal<'a>(magic: &[u8; 8], version: u32, bytes: &'a [u8]) -> Result<&'a [u8], DecodeError> {
    let (sealed, checksum) = bytes.split_at(bytes.len().saturating_sub(8));
    let mut dec = Dec::new(sealed);
    if dec.take(magic.len())? != magic {
        return Err(DecodeError::BadMagic);
    }
    let found = dec.u32()?;
    if found != version {
        return Err(DecodeError::WrongVersion(found));
    }
    if fnv1a64(sealed).to_le_bytes() != checksum {
        return Err(DecodeError::BadChecksum);
    }
    Ok(&sealed[dec.pos..])
}

/// The content address of the id whose canonical bytes are `id_bytes`: the hex
/// FNV-1a-128 digest of that encoding. This is the entry's file name stem.
fn address_of(id_bytes: &[u8]) -> String {
    format!("{:032x}", fnv1a128(id_bytes))
}

/// Stable one-byte tag of a design (cache entry bodies and experiment ids).
pub(crate) fn strategy_tag(strategy: RecoveryStrategy) -> u8 {
    match strategy {
        RecoveryStrategy::Restart => 0,
        RecoveryStrategy::Ulfm => 1,
        RecoveryStrategy::Reinit => 2,
        RecoveryStrategy::Shrink => 3,
    }
}

fn strategy_from_tag(tag: u8) -> Result<RecoveryStrategy, DecodeError> {
    let mut designs = RecoveryStrategy::ALL.into_iter();
    let strategy = designs.find(|&s| strategy_tag(s) == tag);
    strategy.ok_or(DecodeError::BadValue("recovery strategy tag"))
}

fn encode_breakdown(enc: &mut Enc, b: &TimeBreakdown) {
    enc.f64_bits(b.application.as_secs());
    enc.f64_bits(b.checkpoint_write.as_secs());
    enc.f64_bits(b.checkpoint_read.as_secs());
    enc.f64_bits(b.recovery.as_secs());
}

fn decode_breakdown(dec: &mut Dec<'_>) -> Result<TimeBreakdown, DecodeError> {
    Ok(TimeBreakdown {
        application: dec.sim_time()?,
        checkpoint_write: dec.sim_time()?,
        checkpoint_read: dec.sim_time()?,
        recovery: dec.sim_time()?,
    })
}

fn encode_stats(enc: &mut Enc, s: &RankStats) {
    enc.u64(s.sends);
    enc.u64(s.recvs);
    enc.u64(s.bytes_sent);
    enc.u64(s.bytes_received);
    enc.u64(s.collectives);
    enc.u64(s.checkpoints_written);
    enc.u64(s.checkpoint_bytes);
    enc.u64(s.recoveries);
    enc.u64(s.times_failed);
}

fn decode_stats(dec: &mut Dec<'_>) -> Result<RankStats, DecodeError> {
    Ok(RankStats {
        sends: dec.u64()?,
        recvs: dec.u64()?,
        bytes_sent: dec.u64()?,
        bytes_received: dec.u64()?,
        collectives: dec.u64()?,
        checkpoints_written: dec.u64()?,
        checkpoint_bytes: dec.u64()?,
        recoveries: dec.u64()?,
        times_failed: dec.u64()?,
    })
}

/// Restore-source tag of a [`CoveragePath`]: 0 = no restore, then the fallback
/// cascade order.
fn encode_path(enc: &mut Enc, path: &CoveragePath) {
    enc.u8(path.entry.index());
    match path.restore {
        None => {
            enc.u8(0);
            enc.u8(0);
            enc.u32(0);
        }
        Some(r) => {
            let (src, shards) = match r.source {
                RestoreSource::Primary => (1u8, 0u32),
                RestoreSource::Partner => (2, 0),
                RestoreSource::Decode { shards } => (3, shards as u32),
                RestoreSource::Pfs => (4, 0),
            };
            enc.u8(src);
            enc.u8(r.level);
            enc.u32(shards);
        }
    }
    enc.u32(path.erasures);
}

fn decode_path(dec: &mut Dec<'_>) -> Result<CoveragePath, DecodeError> {
    let entry =
        AttemptEntry::from_index(dec.u8()?).ok_or(DecodeError::BadValue("attempt entry tag"))?;
    let src = dec.u8()?;
    let level = dec.u8()?;
    let shards = dec.u32()? as usize;
    let restore = match src {
        0 => None,
        1 => Some(RestoreSource::Primary),
        2 => Some(RestoreSource::Partner),
        3 => Some(RestoreSource::Decode { shards }),
        4 => Some(RestoreSource::Pfs),
        _ => return Err(DecodeError::BadValue("restore source tag")),
    }
    .map(|source| Restore { level, source });
    if restore.is_some() && !(1..=4).contains(&level) {
        return Err(DecodeError::BadValue("restore checkpoint level"));
    }
    let erasures = dec.u32()?;
    Ok(CoveragePath {
        entry,
        restore,
        erasures,
    })
}

/// Serializes a report into the canonical body encoding (no header/checksum —
/// see [`encode_entry`] for the full file format).
pub fn encode_report(report: &RunReport) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u8(strategy_tag(report.strategy));
    enc.usize(report.nprocs);
    enc.bool(report.failure_injected);
    encode_breakdown(&mut enc, &report.breakdown);
    enc.f64_bits(report.total_time.as_secs());
    encode_stats(&mut enc, &report.stats);
    enc.u32(report.restarts);
    enc.u32(report.attempts);
    enc.u64(report.failure_events);
    enc.u32(report.attempt_log.len() as u32);
    for attempt in &report.attempt_log {
        enc.u32(attempt.attempt);
        enc.f64_bits(attempt.span_secs);
        enc.f64_bits(attempt.recovery_secs);
        enc.bool(attempt.completed);
        enc.usize(attempt.survivors);
        encode_path(&mut enc, &attempt.path);
    }
    enc.into_bytes()
}

fn decode_report_body(dec: &mut Dec<'_>) -> Result<RunReport, DecodeError> {
    let strategy = strategy_from_tag(dec.u8()?)?;
    let nprocs = dec.usize()?;
    let failure_injected = dec.bool()?;
    let breakdown = decode_breakdown(dec)?;
    let total_time = dec.sim_time()?;
    let stats = decode_stats(dec)?;
    let restarts = dec.u32()?;
    let attempts = dec.u32()?;
    let failure_events = dec.u64()?;
    let nattempts = dec.u32()?;
    // An attempt record is 40 bytes; reject counts the remaining bytes cannot
    // possibly satisfy before allocating.
    let mut attempt_log = Vec::with_capacity((nattempts as usize).min(4096));
    for _ in 0..nattempts {
        attempt_log.push(AttemptSummary {
            attempt: dec.u32()?,
            span_secs: dec.f64_bits()?,
            recovery_secs: dec.f64_bits()?,
            completed: dec.bool()?,
            survivors: dec.usize()?,
            path: decode_path(dec)?,
        });
    }
    Ok(RunReport {
        strategy,
        nprocs,
        failure_injected,
        breakdown,
        total_time,
        stats,
        restarts,
        attempts,
        failure_events,
        attempt_log,
    })
}

/// Deserializes a canonical body encoding (the inverse of [`encode_report`]).
pub fn decode_report(bytes: &[u8]) -> Result<RunReport, DecodeError> {
    let mut dec = Dec::new(bytes);
    let report = decode_report_body(&mut dec)?;
    dec.finish()?;
    Ok(report)
}

/// Serializes a full cache entry, [`seal`]ed under the magic `"MATCHRC1"` and
/// [`FORMAT_VERSION`]:
///
/// ```text
/// source fingerprint u64 | id length u32 | canonical id bytes | report body
/// ```
///
/// The id bytes make a digest collision (or hand-renamed file) detectable on read.
pub fn encode_entry(id: &ExperimentId, report: &RunReport) -> Vec<u8> {
    let id_bytes = id.canonical_bytes();
    let mut enc = Enc::new();
    enc.u64(source_fingerprint());
    enc.u32(id_bytes.len() as u32);
    enc.bytes(&id_bytes);
    enc.bytes(&encode_report(report));
    seal(&MAGIC, FORMAT_VERSION, &enc.into_bytes())
}

/// Deserializes and fully validates a cache entry for `id` (the inverse of
/// [`encode_entry`]). Every malformation is an `Err`, never a panic.
pub fn decode_entry(id: &ExperimentId, bytes: &[u8]) -> Result<RunReport, DecodeError> {
    decode_entry_for(&id.canonical_bytes(), bytes)
}

/// [`decode_entry`] for the id whose canonical bytes are `id_bytes`.
fn decode_entry_for(id_bytes: &[u8], bytes: &[u8]) -> Result<RunReport, DecodeError> {
    let mut dec = Dec::new(unseal(&MAGIC, FORMAT_VERSION, bytes)?);
    if dec.u64()? != source_fingerprint() {
        return Err(DecodeError::StaleFingerprint);
    }
    let id_len = dec.u32()? as usize;
    if dec.take(id_len)? != id_bytes {
        return Err(DecodeError::IdMismatch);
    }
    let report = decode_report_body(&mut dec)?;
    dec.finish()?;
    Ok(report)
}

/// Outcome of a disk lookup (see [`DiskCache::load`]).
#[derive(Debug)]
pub enum DiskLookup {
    /// A valid entry was read back.
    Hit(RunReport),
    /// No entry exists (or the one found was stale after an upgrade).
    Miss,
    /// An entry exists but is corrupt or unreadable; the caller recomputes and
    /// the write-through replaces the bad file.
    Corrupt,
}

/// Entries and bytes currently stored under a cache root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskUsage {
    /// Number of finished entries.
    pub entries: u64,
    /// Total size of finished entries in bytes.
    pub bytes: u64,
}

/// What one garbage collection pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcOutcome {
    /// Entries evicted (oldest mtime first).
    pub evicted: u64,
    /// Bytes freed by the eviction.
    pub bytes_freed: u64,
    /// Usage remaining after the pass.
    pub remaining: DiskUsage,
}

#[derive(Debug)]
struct DiskEntry {
    path: PathBuf,
    len: u64,
    mtime: HostTime,
}

/// The persistent content-addressed store under one root directory.
///
/// All operations are best-effort with respect to the filesystem: an unreadable
/// or unwritable cache degrades the engine to compute-only, it never fails a run.
/// Multiple processes may share one root concurrently — writes are atomic renames
/// of `fsync`ed temp files, and two processes racing on one entry write
/// bit-identical bytes anyway.
#[derive(Debug)]
pub struct DiskCache {
    root: PathBuf,
    max_bytes: Option<u64>,
    writes: AtomicU64,
}

impl DiskCache {
    /// Opens (lazily — no I/O happens here) a store rooted at `root` with an
    /// optional size cap in bytes for write-triggered GC.
    pub fn new(root: impl Into<PathBuf>, max_bytes: Option<u64>) -> Self {
        DiskCache {
            root: root.into(),
            max_bytes,
            writes: AtomicU64::new(0),
        }
    }

    /// Builds the store the environment describes: `None` when [`knobs::CACHE`]
    /// is off, otherwise rooted at [`knobs::CACHE_DIR`] (default
    /// `target/match-cache` under the workspace) with the [`knobs::CACHE_MAX_MB`]
    /// cap.
    pub fn from_env() -> Option<Arc<DiskCache>> {
        if knobs::CACHE.read() == Some(false) {
            return None;
        }
        let root = knobs::CACHE_DIR
            .read()
            .flatten()
            .unwrap_or_else(default_root);
        let max_bytes = knobs::CACHE_MAX_MB
            .read()
            .map(|mb| mb.saturating_mul(1024 * 1024));
        Some(Arc::new(DiskCache::new(root, max_bytes)))
    }

    /// The process-wide store described by the environment at first use
    /// (`None` when the disk layer is disabled). Shared by every
    /// [`SuiteEngine`](crate::engine::SuiteEngine) so concurrent engines
    /// write-through to one tree.
    pub fn global() -> Option<Arc<DiskCache>> {
        static GLOBAL: OnceLock<Option<Arc<DiskCache>>> = OnceLock::new();
        GLOBAL.get_or_init(DiskCache::from_env).clone()
    }

    /// The root directory of this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The GC size cap in bytes, when one is configured.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The path an entry for `id` lives at: two fan-out levels of the content
    /// address, then the full digest as the file name.
    pub fn path_of(&self, id: &ExperimentId) -> PathBuf {
        self.entry_path(&id.canonical_bytes())
    }

    /// [`DiskCache::path_of`] the id whose canonical bytes are `id_bytes`.
    fn entry_path(&self, id_bytes: &[u8]) -> PathBuf {
        let address = address_of(id_bytes);
        let mut path = PathBuf::with_capacity(self.root.as_os_str().len() + 48);
        path.push(&self.root);
        path.push(&address[0..2]);
        path.push(&address[2..4]);
        path.push(&address);
        path.set_extension(ENTRY_EXT);
        path
    }

    /// Looks `id` up on disk. Missing or stale entries are [`DiskLookup::Miss`];
    /// corrupt, truncated or unreadable ones are [`DiskLookup::Corrupt`].
    ///
    /// A lookup opens the entry once and reads exactly the length its `fstat`
    /// reports. A hit refreshes the entry's mtime, so mtime-LRU GC keeps hot
    /// entries, but at most once a minute: a hit on an entry written or read in
    /// the last minute writes nothing (best-effort either way).
    pub fn load(&self, id: &ExperimentId) -> DiskLookup {
        let id_bytes = id.canonical_bytes();
        let path = self.entry_path(&id_bytes);
        let mut file = match fs::File::open(&path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return DiskLookup::Miss,
            Err(_) => return DiskLookup::Corrupt,
        };
        let Ok(meta) = file.metadata() else {
            return DiskLookup::Corrupt;
        };
        let Ok(len) = usize::try_from(meta.len()) else {
            return DiskLookup::Corrupt;
        };
        let mut bytes = vec![0; len];
        if file.read_exact(&mut bytes).is_err() {
            return DiskLookup::Corrupt;
        }
        match decode_entry_for(&id_bytes, &bytes) {
            Ok(report) => {
                let now = HostTime::now();
                let recent = meta.modified().is_ok_and(|mtime| {
                    now.duration_since(mtime)
                        .map_or(true, |age| age < RECENCY_REFRESH)
                });
                if !recent {
                    let _ = file.set_modified(now);
                }
                DiskLookup::Hit(report)
            }
            Err(e) if e.is_stale() => DiskLookup::Miss,
            Err(_) => DiskLookup::Corrupt,
        }
    }

    /// Writes `report` as the entry for `id` with [`atomic_write`]. Readers
    /// either see the old complete entry (which is bit-identical anyway) or the
    /// new one, never a torn file. Triggers a GC pass periodically (every 32nd
    /// write) when a cap is set.
    pub fn store(&self, id: &ExperimentId, report: &RunReport) -> std::io::Result<()> {
        let path = self.path_of(id);
        let dir = path.parent().expect("entry path has a parent");
        let name = path.file_name().expect("entry path has a file name");
        atomic_write(dir, &name.to_string_lossy(), &encode_entry(id, report))?;

        if let Some(max) = self.max_bytes {
            if self
                .writes
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(GC_WRITE_PERIOD)
            {
                let _ = self.gc(max);
            }
        }
        Ok(())
    }

    fn scan(&self) -> (Vec<DiskEntry>, Vec<PathBuf>) {
        let mut entries = Vec::new();
        let mut temps = Vec::new();
        let Ok(level1) = fs::read_dir(&self.root) else {
            return (entries, temps);
        };
        for l1 in level1.flatten().filter(|e| e.path().is_dir()) {
            let Ok(level2) = fs::read_dir(l1.path()) else {
                continue;
            };
            for l2 in level2.flatten().filter(|e| e.path().is_dir()) {
                let Ok(files) = fs::read_dir(l2.path()) else {
                    continue;
                };
                for file in files.flatten() {
                    let path = file.path();
                    let Ok(meta) = file.metadata() else {
                        continue;
                    };
                    if !meta.is_file() {
                        continue;
                    }
                    if path.extension().is_some_and(|e| e == ENTRY_EXT) {
                        entries.push(DiskEntry {
                            path,
                            len: meta.len(),
                            mtime: meta.modified().unwrap_or(HostTime::UNIX_EPOCH),
                        });
                    } else {
                        temps.push(path);
                    }
                }
            }
        }
        (entries, temps)
    }

    /// Entries and bytes currently stored.
    pub fn usage(&self) -> DiskUsage {
        let (entries, _) = self.scan();
        DiskUsage {
            entries: entries.len() as u64,
            bytes: entries.iter().map(|e| e.len).sum(),
        }
    }

    /// Evicts least-recently-used entries (oldest mtime first; reads refresh the
    /// mtime) until the store fits in `max_bytes`, and sweeps temp files left by
    /// crashed writers. Concurrent readers of an evicted entry simply miss.
    pub fn gc(&self, max_bytes: u64) -> GcOutcome {
        let (mut entries, temps) = self.scan();
        for temp in temps {
            let old = fs::metadata(&temp)
                .and_then(|m| m.modified())
                .map(|t| {
                    t.elapsed()
                        .map(|age| age.as_secs() >= STALE_TEMP_SECS)
                        .unwrap_or(false)
                })
                .unwrap_or(false);
            if old {
                let _ = fs::remove_file(&temp);
            }
        }
        let mut total: u64 = entries.iter().map(|e| e.len).sum();
        // Oldest first; ties broken by path so concurrent GC passes agree.
        entries.sort_by(|a, b| a.mtime.cmp(&b.mtime).then_with(|| a.path.cmp(&b.path)));
        let mut outcome = GcOutcome::default();
        let mut kept = entries.len() as u64;
        for entry in &entries {
            if total <= max_bytes {
                break;
            }
            if fs::remove_file(&entry.path).is_ok() {
                total -= entry.len;
                kept -= 1;
                outcome.evicted += 1;
                outcome.bytes_freed += entry.len;
            }
        }
        outcome.remaining = DiskUsage {
            entries: kept,
            bytes: total,
        };
        outcome
    }

    /// Removes every entry and temp file (the fan-out directories stay). Returns
    /// the number of entries removed.
    pub fn clear(&self) -> u64 {
        let (entries, temps) = self.scan();
        let mut removed = 0;
        for entry in entries {
            if fs::remove_file(&entry.path).is_ok() {
                removed += 1;
            }
        }
        for temp in temps {
            let _ = fs::remove_file(&temp);
        }
        removed
    }
}

/// Publishes `bytes` as the file `name` under `dir` (created on demand), or
/// leaves the directory as it was: the bytes go to a temp file in `dir` (a
/// dot-file ending in `.tmp`), which is `fsync`ed and atomically renamed onto
/// `name`; then `dir` itself is `fsync`ed so the rename is durable too
/// (best-effort: not every filesystem supports it). A failed write removes its
/// temp file. A concurrent or crashing writer never publishes a torn file.
///
/// # Errors
///
/// Creating the directory, writing or syncing the temp file, or the rename.
pub fn atomic_write(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let temp = dir.join(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write = (|| {
        let mut file = fs::File::create(&temp)?;
        file.write_all(bytes)?;
        // Durability point: after this fsync the rename publishes a complete
        // file even if the process or host dies mid-way.
        file.sync_all()?;
        fs::rename(&temp, dir.join(name))
    })();
    if write.is_err() {
        let _ = fs::remove_file(&temp);
    }
    write?;
    let _ = fs::File::open(dir).and_then(|d| d.sync_all());
    Ok(())
}

/// `target/match-cache` under the workspace this binary was compiled from. The
/// compile-time path keeps the cache in one place no matter which crate's test
/// binary (each with its own working directory) opens it.
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/core has a workspace root two levels up")
        .join("target")
        .join("match-cache")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, SuiteOptions};
    use proxies::{InputSize, ProxyKind};

    fn test_id(seed: u64) -> ExperimentId {
        let mut e = Experiment::new(
            ProxyKind::Hpccg,
            InputSize::Small,
            4,
            RecoveryStrategy::Reinit,
        )
        .with_options(&SuiteOptions::smoke());
        e.seed = seed;
        ExperimentId::of(&e)
    }

    fn test_report() -> RunReport {
        RunReport {
            strategy: RecoveryStrategy::Ulfm,
            nprocs: 8,
            failure_injected: true,
            breakdown: TimeBreakdown {
                application: SimTime::from_secs(10.25),
                checkpoint_write: SimTime::from_secs(1.5),
                checkpoint_read: SimTime::from_secs(0.125),
                recovery: SimTime::from_secs(0.75),
            },
            total_time: SimTime::from_secs(12.625),
            stats: RankStats {
                sends: 1,
                recvs: 2,
                bytes_sent: 3,
                bytes_received: 4,
                collectives: 5,
                checkpoints_written: 6,
                checkpoint_bytes: 7,
                recoveries: 8,
                times_failed: 9,
            },
            restarts: 2,
            attempts: 3,
            failure_events: 4,
            attempt_log: vec![
                AttemptSummary {
                    attempt: 1,
                    span_secs: 3.125,
                    recovery_secs: 0.5,
                    completed: false,
                    survivors: 8,
                    path: CoveragePath::fresh(),
                },
                AttemptSummary {
                    attempt: 2,
                    span_secs: 9.5,
                    recovery_secs: 0.0,
                    completed: true,
                    survivors: 7,
                    path: CoveragePath {
                        entry: AttemptEntry::Respawn,
                        restore: Some(Restore {
                            level: 3,
                            source: RestoreSource::Decode { shards: 5 },
                        }),
                        erasures: 2,
                    },
                },
            ],
        }
    }

    #[test]
    fn fnv_digests_match_the_published_vectors() {
        // FNV-1a of the empty string is the offset basis — the classic vector
        // proving the constants (and thus file compatibility) never drift.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a128(b""), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
        // "a" exercises one multiply round of each width.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a128(b"a"), fnv1a128(b"b"));
    }

    #[test]
    fn entry_roundtrip_is_bit_identical() {
        let id = test_id(7);
        let report = test_report();
        let bytes = encode_entry(&id, &report);
        let back = decode_entry(&id, &bytes).expect("roundtrip");
        assert_eq!(back, report);
        // Body-only roundtrip too.
        assert_eq!(decode_report(&encode_report(&report)).unwrap(), report);
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let id = test_id(7);
        let bytes = encode_entry(&id, &test_report());
        for len in 0..bytes.len() {
            assert!(
                decode_entry(&id, &bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let id = test_id(7);
        let bytes = encode_entry(&id, &test_report());
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                decode_entry(&id, &corrupt).is_err(),
                "flip at byte {i} decoded"
            );
        }
    }

    #[test]
    fn version_and_fingerprint_mismatches_read_as_stale() {
        let id = test_id(7);
        let mut bytes = encode_entry(&id, &test_report());
        bytes[8] ^= 1; // the layout version, right after the magic
        let err = decode_entry(&id, &bytes).unwrap_err();
        assert!(matches!(err, DecodeError::WrongVersion(_)), "{err:?}");
        assert!(err.is_stale());
        // A fingerprint flip is stale too — but the checksum must be fixed up,
        // otherwise the corruption is (correctly) reported first.
        let mut bytes = encode_entry(&id, &test_report());
        bytes[12] ^= 1;
        let fixed = fnv1a64(&bytes[..bytes.len() - 8]).to_le_bytes();
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&fixed);
        let err = decode_entry(&id, &bytes).unwrap_err();
        assert_eq!(err, DecodeError::StaleFingerprint);
        assert!(err.is_stale());
        assert!(!DecodeError::BadChecksum.is_stale());
    }

    #[test]
    fn unseal_checks_magic_then_version_then_checksum() {
        let sealed = seal(b"MATCHXP1", 7, b"body");
        assert_eq!(unseal(b"MATCHXP1", 7, &sealed), Ok(&b"body"[..]));
        assert_eq!(unseal(&MAGIC, 7, &sealed), Err(DecodeError::BadMagic));
        // A future layout reads as stale even when its checksum does not match.
        let mut future = seal(b"MATCHXP1", 8, b"other body");
        *future.last_mut().unwrap() ^= 1;
        let err = unseal(b"MATCHXP1", 7, &future).unwrap_err();
        assert_eq!(err, DecodeError::WrongVersion(8));
        assert!(err.is_stale());
        let mut corrupt = sealed.clone();
        corrupt[12] ^= 1;
        assert_eq!(
            unseal(b"MATCHXP1", 7, &corrupt),
            Err(DecodeError::BadChecksum)
        );
        for len in 0..sealed.len() {
            assert!(
                unseal(b"MATCHXP1", 7, &sealed[..len]).is_err(),
                "prefix {len}"
            );
        }
    }

    #[test]
    fn entry_for_one_id_never_decodes_for_another() {
        let bytes = encode_entry(&test_id(1), &test_report());
        assert_eq!(
            decode_entry(&test_id(2), &bytes).unwrap_err(),
            DecodeError::IdMismatch
        );
    }

    #[test]
    fn nan_attempt_spans_roundtrip_by_bits() {
        // Plain f64 fields carry whatever bits they had; only virtual times are
        // domain-checked.
        let mut report = test_report();
        report.attempt_log[0].span_secs = f64::from_bits(0x7ff8_dead_beef_0001);
        let back = decode_report(&encode_report(&report)).unwrap();
        assert_eq!(
            back.attempt_log[0].span_secs.to_bits(),
            report.attempt_log[0].span_secs.to_bits()
        );
    }

    #[test]
    fn negative_virtual_time_is_rejected_not_panicking() {
        let report = test_report();
        let mut body = encode_report(&report);
        // The first breakdown field starts after strategy(1) + nprocs(8) + bool(1).
        body[10..18].copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        assert_eq!(
            decode_report(&body).unwrap_err(),
            DecodeError::BadValue("virtual time")
        );
    }

    #[test]
    fn content_addresses_are_stable_and_distinct() {
        let content_address = |id: &ExperimentId| address_of(&id.canonical_bytes());
        let a = content_address(&test_id(1));
        assert_eq!(a, content_address(&test_id(1)));
        assert_ne!(a, content_address(&test_id(2)));
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn store_load_roundtrip_and_layout() {
        let dir = std::env::temp_dir().join(format!("match-persist-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = DiskCache::new(&dir, None);
        let id = test_id(42);
        let report = test_report();
        assert!(matches!(cache.load(&id), DiskLookup::Miss));
        cache.store(&id, &report).expect("store");
        let path = cache.path_of(&id);
        assert!(path.exists());
        // Two-level fan-out: root/ab/cd/<digest>.rpt
        let address = address_of(&id.canonical_bytes());
        assert!(path.ends_with(
            Path::new(&address[0..2])
                .join(&address[2..4])
                .join(format!("{address}.rpt"))
        ));
        match cache.load(&id) {
            DiskLookup::Hit(back) => assert_eq!(back, report),
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(cache.usage().entries, 1);
        assert_eq!(cache.clear(), 1);
        assert_eq!(cache.usage(), DiskUsage::default());
        let _ = fs::remove_dir_all(&dir);
    }
}
