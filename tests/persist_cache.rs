//! End-to-end tests of the persistent content-addressed result cache
//! (`match_core::persist`): encode/decode round trips must be bit-identical,
//! every malformed file must degrade to a recompute (never a panic or a wrong
//! report), concurrent writers must never tear an entry, a fresh process must
//! warm-start with zero simulations, and the mtime-LRU GC must evict oldest
//! first.

#![allow(clippy::disallowed_types, reason = "LRU tests age entries by mtime")]

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use match_core::cache::ResultCache;
use match_core::fti::RestoreSource;
use match_core::persist::{self, DiskCache, DiskLookup};
use match_core::proxies::{InputSize, ProxyKind};
use match_core::recovery::{
    AttemptEntry, AttemptSummary, CoveragePath, RecoveryStrategy, Restore, RunReport,
};
use match_core::{mpisim, Experiment, ExperimentId, SuiteEngine, SuiteOptions};

/// A private, initially empty cache root for one test.
fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("match-persist-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn smoke(seed: u64, inject: bool) -> Experiment {
    let mut e = Experiment::new(
        ProxyKind::Hpccg,
        InputSize::Small,
        4,
        RecoveryStrategy::Reinit,
    )
    .with_options(&SuiteOptions::smoke())
    .with_failure(inject);
    e.seed = seed;
    e
}

/// A synthetic report derived deterministically from `seed`, with a
/// multi-attempt log.
fn synthetic_report(seed: u64, nattempts: usize) -> RunReport {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    // Finite, non-negative, and with plenty of mantissa entropy: u32 / 1024.
    let mut time = move || (next() as u32) as f64 / 1024.0;
    let mut state2 = seed ^ 0xDEAD_BEEF;
    let mut count = move || {
        state2 = state2.wrapping_mul(6364136223846793005).wrapping_add(1);
        state2 >> 33
    };
    let attempt_log: Vec<AttemptSummary> = (0..nattempts)
        .map(|i| AttemptSummary {
            attempt: i as u32 + 1,
            span_secs: (count() as u32) as f64 / 4096.0,
            recovery_secs: (count() as u32) as f64 / 4096.0,
            completed: i + 1 == nattempts,
            survivors: (count() % 4096) as usize,
            path: CoveragePath {
                entry: AttemptEntry::from_index((count() % 3) as u8).unwrap(),
                restore: match count() % 5 {
                    0 => None,
                    1 => Some(Restore {
                        level: 1,
                        source: RestoreSource::Primary,
                    }),
                    2 => Some(Restore {
                        level: 2,
                        source: RestoreSource::Partner,
                    }),
                    3 => Some(Restore {
                        level: 3,
                        source: RestoreSource::Decode {
                            shards: (count() % 7) as usize,
                        },
                    }),
                    _ => Some(Restore {
                        level: 4,
                        source: RestoreSource::Pfs,
                    }),
                },
                erasures: (count() % 16) as u32,
            },
        })
        .collect();
    RunReport {
        strategy: RecoveryStrategy::ALL[(seed as usize) % RecoveryStrategy::ALL.len()],
        nprocs: (count() % 4096) as usize,
        failure_injected: seed.is_multiple_of(2),
        breakdown: mpisim::TimeBreakdown {
            application: mpisim::SimTime::from_secs(time()),
            checkpoint_write: mpisim::SimTime::from_secs(time()),
            checkpoint_read: mpisim::SimTime::from_secs(time()),
            recovery: mpisim::SimTime::from_secs(time()),
        },
        total_time: mpisim::SimTime::from_secs(time()),
        stats: mpisim::RankStats {
            sends: count(),
            recvs: count(),
            bytes_sent: count(),
            bytes_received: count(),
            collectives: count(),
            checkpoints_written: count(),
            checkpoint_bytes: count(),
            recoveries: count(),
            times_failed: count(),
        },
        restarts: (count() % 100) as u32,
        attempts: nattempts as u32,
        failure_events: count(),
        attempt_log,
    }
}

#[test]
fn fresh_engine_warm_starts_with_zero_simulations() {
    let root = tmp_root("warm-start");
    let disk = Arc::new(DiskCache::new(&root, None));
    let experiments = [smoke(1, false), smoke(1, true), smoke(2, true)];

    // Cold: everything simulated and written through.
    let cold = SuiteEngine::with_jobs_and_disk(2, Some(Arc::clone(&disk)));
    let cold_reports: Vec<RunReport> = experiments
        .iter()
        .map(|e| cold.run(e).expect("cold run"))
        .collect();
    let stats = cold.cache_stats();
    assert_eq!(stats.disk_misses, 3, "cold run simulates every cell");
    assert_eq!(stats.disk_writes, 3, "every report is written through");
    assert_eq!(stats.disk_hits, 0);

    // Warm: a fresh engine (empty memory cache) models a fresh process. Every
    // cell must come back from disk, bit-identical, with zero simulations.
    let warm = SuiteEngine::with_jobs_and_disk(2, Some(Arc::clone(&disk)));
    for (e, cold_report) in experiments.iter().zip(&cold_reports) {
        assert_eq!(&warm.run(e).expect("warm run"), cold_report);
    }
    let stats = warm.cache_stats();
    assert_eq!(stats.disk_hits, 3, "warm run recalls every cell");
    assert_eq!(stats.disk_misses, 0, "warm run simulates nothing");
    assert_eq!(stats.disk_read_errors, 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn corrupt_truncated_version_bumped_and_empty_entries_degrade_to_recompute() {
    let root = tmp_root("degrade");
    let disk = Arc::new(DiskCache::new(&root, None));
    let experiment = smoke(7, true);
    let id = ExperimentId::of(&experiment);

    let cold = SuiteEngine::with_jobs_and_disk(1, Some(Arc::clone(&disk)));
    let expected = cold.run(&experiment).expect("cold run");
    let path = disk.path_of(&id);
    let pristine = fs::read(&path).expect("entry exists");

    // (mutation, is_corruption): corruption counts as a read error; a version
    // bump is an *expected* stale miss after an upgrade, not an error.
    type Mutation = Box<dyn Fn(&[u8]) -> Vec<u8>>;
    let cases: [(&str, Mutation, bool); 7] = [
        (
            "flipped byte",
            Box::new(|b: &[u8]| {
                let mut v = b.to_vec();
                let mid = v.len() / 2;
                v[mid] ^= 0x5A;
                v
            }),
            true,
        ),
        (
            "truncated",
            Box::new(|b: &[u8]| b[..b.len() / 2].to_vec()),
            true,
        ),
        (
            "truncated by one byte",
            Box::new(|b: &[u8]| b[..b.len() - 1].to_vec()),
            true,
        ),
        (
            "truncated to 13 bytes",
            Box::new(|b: &[u8]| b[..13].to_vec()),
            true,
        ),
        ("empty", Box::new(|_: &[u8]| Vec::new()), true),
        (
            "garbage",
            Box::new(|_: &[u8]| b"not a cache entry at all".to_vec()),
            true,
        ),
        (
            "version bumped",
            Box::new(|b: &[u8]| {
                let mut v = b.to_vec();
                v[8] = v[8].wrapping_add(1); // the format version, after the magic
                v
            }),
            false,
        ),
    ];
    for (label, mutate, is_corruption) in cases {
        fs::write(&path, mutate(&pristine)).expect("plant bad entry");
        let engine = SuiteEngine::with_jobs_and_disk(1, Some(Arc::clone(&disk)));
        let report = engine.run(&experiment).unwrap_or_else(|e| {
            panic!("a {label} entry must recompute, not fail: {e}");
        });
        assert_eq!(report, expected, "{label}: recompute must be bit-identical");
        let stats = engine.cache_stats();
        assert_eq!(stats.disk_misses, 1, "{label}: the cell was simulated");
        assert_eq!(
            stats.disk_read_errors,
            u64::from(is_corruption),
            "{label}: read-error accounting"
        );
        // The recompute rewrote the entry: the next fresh engine hits again.
        let rewritten = SuiteEngine::with_jobs_and_disk(1, Some(Arc::clone(&disk)));
        assert_eq!(&rewritten.run(&experiment).expect("rewritten"), &expected);
        assert_eq!(
            rewritten.cache_stats().disk_hits,
            1,
            "{label}: rewritten entry hits"
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn two_threads_writing_the_same_entry_never_tear_it() {
    let root = tmp_root("concurrent");
    let disk = Arc::new(DiskCache::new(&root, None));
    let id = ExperimentId::of(&smoke(11, false));
    let report = synthetic_report(11, 3);

    // Two *independent* caches sharing the store model two processes: the
    // in-process in-flight dedup cannot help, so both threads race store().
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let disk = Arc::clone(&disk);
            let report = report.clone();
            scope.spawn(move || {
                let cache = ResultCache::with_disk(Some(disk));
                let out = cache
                    .get_or_compute(id, || "t".into(), || Ok(report.clone()))
                    .expect("compute");
                assert_eq!(out, report);
            });
        }
    });

    // Whatever interleaving happened, the published entry is complete and valid.
    match disk.load(&id) {
        DiskLookup::Hit(back) => assert_eq!(back, report),
        other => panic!("expected a valid entry after the race, got {other:?}"),
    }
    assert_eq!(disk.usage().entries, 1);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn gc_evicts_oldest_entries_first() {
    let root = tmp_root("gc");
    let disk = DiskCache::new(&root, None);
    let ids: Vec<ExperimentId> = (0..4)
        .map(|i| ExperimentId::of(&smoke(100 + i, false)))
        .collect();
    let report = synthetic_report(5, 2);
    for id in &ids {
        disk.store(id, &report).expect("store");
    }
    // Backdate mtimes so ids[0] is oldest and ids[3] newest, regardless of
    // write timing granularity.
    let now = SystemTime::now();
    for (i, id) in ids.iter().enumerate() {
        let file = fs::File::options()
            .append(true)
            .open(disk.path_of(id))
            .expect("open entry");
        file.set_modified(now - Duration::from_secs(100 - i as u64 * 10))
            .expect("backdate");
    }
    let total = disk.usage().bytes;
    let entry = total / 4;
    assert_eq!(total % 4, 0, "identical reports encode to identical sizes");

    // Cap at two entries: the two oldest must go, the two newest must stay.
    let outcome = disk.gc(entry * 2);
    assert_eq!(outcome.evicted, 2);
    assert_eq!(outcome.bytes_freed, entry * 2);
    assert_eq!(outcome.remaining.entries, 2);
    assert!(!disk.path_of(&ids[0]).exists(), "oldest entry evicted");
    assert!(!disk.path_of(&ids[1]).exists(), "second-oldest evicted");
    assert!(disk.path_of(&ids[2]).exists(), "newer entry kept");
    assert!(disk.path_of(&ids[3]).exists(), "newest entry kept");

    // A cap everything already fits under evicts nothing.
    let outcome = disk.gc(entry * 2);
    assert_eq!(outcome.evicted, 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn reads_refresh_recency_for_the_lru_sweep() {
    let root = tmp_root("lru-touch");
    let disk = DiskCache::new(&root, None);
    let old_id = ExperimentId::of(&smoke(200, false));
    let new_id = ExperimentId::of(&smoke(201, false));
    let report = synthetic_report(9, 1);
    disk.store(&old_id, &report).expect("store old");
    disk.store(&new_id, &report).expect("store new");
    let backdate = |id: &ExperimentId, secs: u64| {
        fs::File::options()
            .append(true)
            .open(disk.path_of(id))
            .expect("open")
            .set_modified(SystemTime::now() - Duration::from_secs(secs))
            .expect("backdate");
    };
    backdate(&old_id, 500);
    backdate(&new_id, 100);
    // Reading the older entry bumps its mtime past the other's, flipping the
    // eviction order.
    assert!(matches!(disk.load(&old_id), DiskLookup::Hit(_)));
    let entry = disk.usage().bytes / 2;
    let outcome = disk.gc(entry);
    assert_eq!(outcome.evicted, 1);
    assert!(
        disk.path_of(&old_id).exists(),
        "recently read entry survives"
    );
    assert!(!disk.path_of(&new_id).exists(), "unread entry was evicted");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_hit_on_a_recent_entry_writes_nothing_to_the_store() {
    use std::os::unix::fs::MetadataExt;

    let root = tmp_root("recent-hit");
    let disk = DiskCache::new(&root, None);
    let id = ExperimentId::of(&smoke(202, true));
    let report = synthetic_report(13, 2);
    disk.store(&id, &report).expect("store");
    let path = disk.path_of(&id);
    // Backdate inside the one-minute refresh interval, to an mtime no refresh
    // would write.
    fs::File::options()
        .append(true)
        .open(&path)
        .expect("open")
        .set_modified(SystemTime::now() - Duration::from_secs(20))
        .expect("backdate");
    let bytes = fs::read(&path).expect("entry bytes");
    let meta = fs::metadata(&path).expect("metadata");
    for _ in 0..3 {
        match disk.load(&id) {
            DiskLookup::Hit(back) => assert_eq!(back, report),
            other => panic!("expected a hit, got {other:?}"),
        }
    }
    let after = fs::metadata(&path).expect("metadata");
    assert_eq!(fs::read(&path).expect("entry bytes"), bytes);
    assert_eq!(
        after.modified().ok(),
        meta.modified().ok(),
        "mtime unchanged"
    );
    // Any metadata write, even of an equal mtime, would move the change time.
    assert_eq!(
        (after.ctime(), after.ctime_nsec()),
        (meta.ctime(), meta.ctime_nsec()),
        "inode unchanged"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn disabled_disk_layer_counts_every_compute_as_a_disk_miss() {
    let cache = ResultCache::new();
    let id = ExperimentId::of(&smoke(300, false));
    let report = synthetic_report(1, 0);
    let _ = cache.get_or_compute(id, || "t".into(), || Ok(report.clone()));
    let _ = cache.get_or_compute(id, || "t".into(), || Ok(report));
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert_eq!(
        stats.disk_misses, 1,
        "the compute is visible to --expect-warm"
    );
    assert_eq!(
        (stats.disk_hits, stats.disk_writes, stats.disk_read_errors),
        (0, 0, 0)
    );
}

#[test]
fn errors_are_not_written_through() {
    let root = tmp_root("no-error-persist");
    let disk = Arc::new(DiskCache::new(&root, None));
    // nprocs = 0 panics inside the cluster constructor; the engine contains it.
    let bad = Experiment::new(
        ProxyKind::Hpccg,
        InputSize::Small,
        0,
        RecoveryStrategy::Reinit,
    )
    .with_options(&SuiteOptions::smoke());
    let engine = SuiteEngine::with_jobs_and_disk(1, Some(Arc::clone(&disk)));
    assert!(engine.run(&bad).is_err());
    let stats = engine.cache_stats();
    assert_eq!(stats.disk_writes, 0, "errors stay in-process");
    assert_eq!(disk.usage().entries, 0);
    let _ = fs::remove_dir_all(&root);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Tentpole property: encode/decode of any report — any strategy, any
        /// counter values, any multi-attempt log — is bit-identical, both as a
        /// bare body and as a full checksummed entry.
        #[test]
        fn report_roundtrip_is_bit_identical(
            seed in any::<u64>(),
            nattempts in 0usize..6,
        ) {
            let report = synthetic_report(seed, nattempts);
            let body = persist::encode_report(&report);
            prop_assert_eq!(persist::decode_report(&body).unwrap(), report.clone());

            let id = ExperimentId::of(&smoke(seed, seed.is_multiple_of(2)));
            let entry = persist::encode_entry(&id, &report);
            prop_assert_eq!(persist::decode_entry(&id, &entry).unwrap(), report);
        }

        /// Any truncation of a valid entry decodes to an error, never a panic
        /// or a report.
        #[test]
        fn any_truncation_is_rejected(
            seed in any::<u64>(),
            cut in any::<u16>(),
        ) {
            let report = synthetic_report(seed, 2);
            let id = ExperimentId::of(&smoke(seed, false));
            let entry = persist::encode_entry(&id, &report);
            let len = (cut as usize) % entry.len();
            prop_assert!(persist::decode_entry(&id, &entry[..len]).is_err());
        }

        /// Any single-byte corruption of a valid entry is detected.
        #[test]
        fn any_single_byte_corruption_is_rejected(
            seed in any::<u64>(),
            position in any::<u16>(),
            flip in 1u64..256,
        ) {
            let report = synthetic_report(seed, 2);
            let id = ExperimentId::of(&smoke(seed, false));
            let mut entry = persist::encode_entry(&id, &report);
            let position = (position as usize) % entry.len();
            entry[position] ^= flip as u8;
            prop_assert!(persist::decode_entry(&id, &entry).is_err());
        }
    }
}

#[test]
fn a_failure_free_twin_stores_its_representatives_bytes_whichever_runs_first() {
    // REINIT's failure-free cell is RESTART's simulation: one entry, stored under
    // RESTART's label, byte-identical whichever twin the store saw first.
    let twin = |strategy| Experiment {
        strategy,
        ..smoke(1, false)
    };
    let mut stored = Vec::new();
    for (name, first, second) in [
        (
            "twin-reinit-first",
            RecoveryStrategy::Reinit,
            RecoveryStrategy::Restart,
        ),
        (
            "twin-restart-first",
            RecoveryStrategy::Restart,
            RecoveryStrategy::Reinit,
        ),
    ] {
        let root = tmp_root(name);
        let disk = Arc::new(DiskCache::new(&root, None));
        let engine = SuiteEngine::with_jobs_and_disk(1, Some(Arc::clone(&disk)));
        let reports = [first, second].map(|s| engine.run(&twin(s)).expect("twin run"));
        assert_eq!(reports.each_ref().map(|r| r.strategy), [first, second]);
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.hits, stats.disk_misses, stats.disk_writes),
            (1, 1, 1)
        );
        assert_eq!(disk.usage().entries, 1);
        let id = ExperimentId::of(&twin(RecoveryStrategy::Restart));
        assert_eq!(id, ExperimentId::of(&twin(RecoveryStrategy::Reinit)));
        match disk.load(&id) {
            DiskLookup::Hit(report) => assert_eq!(report.strategy, RecoveryStrategy::Restart),
            other => panic!("{name}: expected a hit, got {other:?}"),
        }
        stored.push(fs::read(disk.path_of(&id)).expect("entry bytes"));
        let _ = fs::remove_dir_all(&root);
    }
    assert_eq!(stored[0], stored[1]);
}
