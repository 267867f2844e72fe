//! Opt-in on-disk corpus persistence.
//!
//! When `MATCH_EXPLORE_CORPUS` names a directory, every genome that reached a
//! novel path signature is persisted — one file per genome, named by the FNV-1a-64
//! content address of its canonical bytes — and reloaded as extra seeds by later
//! invocations. An entry is framed and written by the result cache's own code
//! ([`persist::seal`], [`persist::unseal`], [`persist::atomic_write`]), and *every*
//! malformed entry (torn, truncated, bit-rotted, version-skewed) is skipped and
//! re-explored, never a panic.

use std::fs;
use std::path::Path;

use match_core::persist::{self, atomic_write, fnv1a64};

use crate::genome::TraceGenome;

/// Magic bytes opening every corpus entry.
const MAGIC: [u8; 8] = *b"MATCHXP1";

/// Version of the corpus entry layout; bumping it silently retires old entries.
const VERSION: u32 = 1;

/// File extension of finished entries; everything else in the directory is a
/// temp file or foreign and is ignored.
const ENTRY_EXT: &str = "xpc";

/// Serializes one corpus entry: the genome's canonical bytes, sealed.
pub fn encode_entry(genome: &TraceGenome) -> Vec<u8> {
    persist::seal(&MAGIC, VERSION, &genome.canonical_bytes())
}

/// Deserializes a corpus entry; `None` for anything malformed.
pub fn decode_entry(bytes: &[u8]) -> Option<TraceGenome> {
    TraceGenome::decode(persist::unseal(&MAGIC, VERSION, bytes).ok()?)
}

/// The entry file name of a genome: the hex content address of its canonical
/// bytes.
pub fn entry_name(genome: &TraceGenome) -> String {
    format!("{:016x}.{ENTRY_EXT}", fnv1a64(&genome.canonical_bytes()))
}

/// Persists `genome` under `dir` (created on demand) with [`atomic_write`], so a
/// concurrent or crashing writer never publishes a torn entry. Best-effort: an
/// unwritable corpus silently degrades to in-memory exploration.
pub fn save(dir: &Path, genome: &TraceGenome) {
    let _ = atomic_write(dir, &entry_name(genome), &encode_entry(genome));
}

/// Loads every valid entry under `dir`, in file-name (= content address) order so
/// reloading is deterministic. Missing directories, unreadable files and corrupt
/// or version-skewed entries are skipped.
pub fn load(dir: &Path) -> Vec<TraceGenome> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == ENTRY_EXT))
        .collect();
    names.sort();
    names
        .into_iter()
        .filter_map(|path| fs::read(path).ok())
        .filter_map(|bytes| decode_entry(&bytes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use match_core::mpisim::FailureSpec;

    fn genome(victim: usize) -> TraceGenome {
        let mut g = TraceGenome::baseline(8, 12);
        g.events = vec![FailureSpec::crash_node(victim, 5)];
        g
    }

    #[test]
    fn entries_round_trip() {
        let g = genome(1);
        assert_eq!(decode_entry(&encode_entry(&g)), Some(g));
    }

    #[test]
    fn every_truncation_and_byte_flip_is_skipped_not_a_panic() {
        let bytes = encode_entry(&genome(1));
        for len in 0..bytes.len() {
            assert!(decode_entry(&bytes[..len]).is_none(), "prefix {len}");
        }
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x20;
            assert!(decode_entry(&corrupt).is_none(), "flip at {i}");
        }
    }

    #[test]
    fn save_load_round_trip_ignores_corruption() {
        let dir = std::env::temp_dir().join(format!("match-xpc-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        save(&dir, &genome(1));
        save(&dir, &genome(2));
        // A torn (truncated) entry and a foreign file must both be skipped.
        fs::write(
            dir.join("feedfacefeedface.xpc"),
            &encode_entry(&genome(3))[..10],
        )
        .unwrap();
        fs::write(dir.join("README.txt"), b"not an entry").unwrap();
        let loaded = load(&dir);
        assert_eq!(loaded.len(), 2);
        assert!(loaded.contains(&genome(1)));
        assert!(loaded.contains(&genome(2)));
        // Re-saving an identical genome is idempotent (same content address).
        save(&dir, &genome(1));
        assert_eq!(load(&dir).len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
