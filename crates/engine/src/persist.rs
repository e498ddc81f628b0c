//! Crash-safe persistence for the normalized query cache.
//!
//! The ROADMAP's `bf4d` incremental service re-verifies programs across
//! process lifetimes, so the cache's canonical `key → Sat/Unsat` map must
//! survive restarts *and* crashes without ever poisoning a verdict. The
//! bytes on disk go through [`bf4_obs::durable`], the record log the shim
//! journal and the telemetry series use too, in a two-file layout under
//! `--cache-dir`:
//!
//! * `snap-<generation>.bf4q` — an immutable **snapshot**: one header
//!   line plus one line per entry, every line a sealed (FNV-1a
//!   checksummed) line. Snapshots are written by atomic replace — a
//!   crash mid-compaction leaves the previous generation intact.
//! * `wal.bf4q` — an append-only **log** of entries computed since the
//!   snapshot, same line format. Appends are the cheap steady-state save
//!   and cut a torn tail off before writing; once the log rivals the
//!   snapshot in size, a save compacts: new snapshot, next generation,
//!   log deleted.
//!
//! Recovery is per-line: any line whose checksum or syntax fails —
//! torn tail, truncation, bit flip — is dropped and counted in
//! `cache_corrupt_records`, and every other valid line is salvaged. A
//! corrupt cache therefore costs cache misses, never wrong verdicts.
//!
//! Both headers carry [`bf4_smt::schema_fingerprint`]: a cache written
//! under a different canonicalization scheme (where equal keys may mean
//! different formulas) is rejected wholesale as *stale* and rebuilt,
//! instead of matching new queries against old meanings.
//!
//! Fault sites (`cache.load_io`, `cache.load_corrupt`,
//! `cache.persist_io`) let the chaos suite inject I/O failures and
//! in-flight corruption; an injected save failure deliberately leaves a
//! torn file behind so recovery is exercised against real torn state.

use crate::cache::QueryCache;
use bf4_obs::durable::{self, Appender};
use bf4_smt::SatResult;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Format version of the store. Bump on any layout change.
const VERSION: u32 = 1;
/// Magic of snapshot headers.
const SNAP_MAGIC: &str = "bf4qc";
/// Magic of log headers.
const LOG_MAGIC: &str = "bf4ql";
/// Name of the append-only log file.
const LOG_NAME: &str = "wal.bf4q";

fn encode_entry(key: u128, result: SatResult) -> String {
    let v = match result {
        SatResult::Sat => 'S',
        SatResult::Unsat => 'U',
        SatResult::Unknown => unreachable!("Unknown is never persisted"),
    };
    durable::seal(&format!("{key:032x} {v}"))
}

fn decode_entry(payload: &str) -> Option<(u128, SatResult)> {
    let (key, verdict) = payload.split_once(' ')?;
    if key.len() != 32 {
        return None;
    }
    let key = u128::from_str_radix(key, 16).ok()?;
    let result = match verdict {
        "S" => SatResult::Sat,
        "U" => SatResult::Unsat,
        _ => return None,
    };
    Some((key, result))
}

/// Parsed header of a snapshot or log file.
struct Header {
    fingerprint: u64,
    generation: u64,
}

fn encode_header(magic: &str, fingerprint: u64, generation: u64) -> String {
    durable::seal(&format!("{magic} {VERSION} {fingerprint:016x} {generation}"))
}

fn decode_header(payload: &str, magic: &str) -> Option<Header> {
    let mut parts = payload.split(' ');
    if parts.next()? != magic {
        return None;
    }
    if parts.next()?.parse::<u32>().ok()? != VERSION {
        return None;
    }
    let fingerprint = u64::from_str_radix(parts.next()?, 16).ok()?;
    let generation = parts.next()?.parse().ok()?;
    parts.next().is_none().then_some(Header {
        fingerprint,
        generation,
    })
}

/// What a [`Store::open`] found on disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Valid entries salvaged (snapshot + log) and offered to the cache.
    pub loaded: u64,
    /// Lines dropped for failing a checksum or the record syntax —
    /// torn tails, truncations and bit flips all land here.
    pub corrupt_records: u64,
    /// Files rejected wholesale: unreadable header, wrong schema
    /// fingerprint, or a log from a different generation.
    pub stale_files: u64,
    /// Generation of the snapshot in use (0 = none yet).
    pub generation: u64,
}

/// What a [`Store::save`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SaveReport {
    /// Generation after the save.
    pub generation: u64,
    /// Entries appended to the log (0 when the save compacted).
    pub appended: u64,
    /// Whether the save rewrote a full snapshot.
    pub compacted: bool,
}

/// Handle on a cache directory: tracks the live generation and decides
/// append-vs-compact on save.
pub struct Store {
    dir: PathBuf,
    fingerprint: u64,
    generation: u64,
    /// Entries in the live snapshot (compaction sizing).
    snapshot_records: u64,
    /// Entries already appended to the log (compaction sizing).
    log_records: u64,
    /// A rejected snapshot/log was seen on open; the next save compacts
    /// so the stale bytes are reclaimed.
    saw_stale: bool,
    /// Keys already durable on disk; saves append only what is new.
    persisted: std::collections::HashSet<u128>,
}

impl Store {
    /// Open (creating if needed) the store in `dir` and warm-start
    /// `cache` with every valid entry found. Corrupt lines are counted
    /// into the cache's `corrupt_records` stat and the report; stale
    /// files are skipped wholesale and replaced on the next save.
    pub fn open(dir: &Path, cache: &QueryCache) -> io::Result<(Store, LoadReport)> {
        let mut sp = bf4_obs::span("cache", "persist_load");
        fs::create_dir_all(dir)?;
        let fingerprint = bf4_smt::schema_fingerprint();
        let mut store = Store {
            dir: dir.to_path_buf(),
            fingerprint,
            generation: 0,
            snapshot_records: 0,
            log_records: 0,
            saw_stale: false,
            persisted: Default::default(),
        };
        let mut report = LoadReport::default();

        // Newest snapshot with a valid, fingerprint-matching header wins.
        let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some(gen) = name
                .strip_prefix("snap-")
                .and_then(|r| r.strip_suffix(".bf4q"))
                .and_then(|g| g.parse::<u64>().ok())
            {
                snaps.push((gen, path));
            }
        }
        snaps.sort_unstable_by_key(|&(gen, _)| std::cmp::Reverse(gen));
        for (gen, path) in &snaps {
            match store.load_file(path, SNAP_MAGIC, cache, &mut report)? {
                Some(header) if header.generation == *gen => {
                    store.generation = *gen;
                    store.snapshot_records = report.loaded;
                    break;
                }
                _ => {
                    report.stale_files += 1;
                    store.saw_stale = true;
                }
            }
        }
        report.generation = store.generation;

        // The log is only valid against the snapshot it was logging for.
        let log = dir.join(LOG_NAME);
        if log.exists() {
            let before = report.loaded;
            match store.load_file(&log, LOG_MAGIC, cache, &mut report)? {
                Some(header) if header.generation == store.generation => {
                    store.log_records = report.loaded - before;
                }
                _ => {
                    report.stale_files += 1;
                    store.saw_stale = true;
                }
            }
        }

        cache.note_corrupt(report.corrupt_records);
        if sp.is_active() {
            sp.add_tag("loaded", report.loaded.to_string());
            sp.add_tag("corrupt", report.corrupt_records.to_string());
            sp.add_tag("generation", report.generation.to_string());
        }
        if report.corrupt_records > 0 || report.stale_files > 0 {
            bf4_obs::warn(
                "cache",
                &format!(
                    "cache store salvage: {} loaded, {} corrupt record(s) dropped, \
                     {} stale file(s) skipped",
                    report.loaded, report.corrupt_records, report.stale_files
                ),
            );
        }
        Ok((store, report))
    }

    /// Read one store file, preloading valid entries; returns the header
    /// if it validated (entries are only read under a valid header).
    fn load_file(
        &mut self,
        path: &Path,
        magic: &str,
        cache: &QueryCache,
        report: &mut LoadReport,
    ) -> io::Result<Option<Header>> {
        if bf4_obs::fault::fire("cache.load_io") {
            return Err(io::Error::other("injected fault: cache.load_io"));
        }
        let mut content = fs::read(path)?;
        if bf4_obs::fault::fire("cache.load_corrupt") && !content.is_empty() {
            // Flip one bit mid-file: the affected line must be dropped and
            // counted, everything else salvaged.
            let at = content.len() / 2;
            content[at] ^= 0x40;
        }
        let mut lines = durable::salvage(&content);
        let Some(header) = lines.next().flatten().and_then(|p| decode_header(p, magic)) else {
            return Ok(None);
        };
        if header.fingerprint != self.fingerprint {
            return Ok(None);
        }
        for line in lines {
            match line.and_then(decode_entry) {
                Some((key, result)) => {
                    cache.preload(key, result);
                    self.persisted.insert(key);
                    report.loaded += 1;
                }
                None => report.corrupt_records += 1,
            }
        }
        Ok(Some(header))
    }

    /// Persist the session's new entries: append to the log in the steady
    /// state, or compact into a next-generation snapshot when the log
    /// rivals the snapshot (or anything stale/torn needs reclaiming).
    ///
    /// An injected `cache.persist_io` fault fails the save midway,
    /// leaving a genuinely torn file for recovery to salvage.
    pub fn save(&mut self, cache: &QueryCache) -> io::Result<SaveReport> {
        let mut sp = bf4_obs::span("cache", "persist_save");
        let fresh: Vec<(u128, SatResult)> = cache
            .session_entries()
            .into_iter()
            .filter(|(k, _)| !self.persisted.contains(k))
            .collect();
        let compact = self.generation == 0
            || self.saw_stale
            || self.log_records + fresh.len() as u64 >= self.snapshot_records.max(64);
        let report = if compact {
            self.compact(cache)?
        } else {
            self.append(&fresh)?
        };
        for (k, _) in &fresh {
            self.persisted.insert(*k);
        }
        if sp.is_active() {
            sp.add_tag("appended", report.appended.to_string());
            sp.add_tag("compacted", report.compacted.to_string());
            sp.add_tag("generation", report.generation.to_string());
        }
        Ok(report)
    }

    /// Append `fresh` entries to the log, creating it (with a header for
    /// the live generation) if it holds no whole record. An injected
    /// `cache.persist_io` fault tears the write half-way.
    fn append(&mut self, fresh: &[(u128, SatResult)]) -> io::Result<SaveReport> {
        if fresh.is_empty() {
            return Ok(SaveReport {
                generation: self.generation,
                ..SaveReport::default()
            });
        }
        let mut log = Appender::open(&self.dir.join(LOG_NAME))?;
        let mut buf = String::new();
        if log.is_empty() {
            buf.push_str(&encode_header(LOG_MAGIC, self.fingerprint, self.generation));
        }
        for &(key, result) in fresh {
            buf.push_str(&encode_entry(key, result));
        }
        log.append(buf.as_bytes(), Some("cache.persist_io"))?;
        log.sync()?;
        self.log_records += fresh.len() as u64;
        Ok(SaveReport {
            generation: self.generation,
            appended: fresh.len() as u64,
            compacted: false,
        })
    }

    /// Write every resident entry into a next-generation snapshot by
    /// atomic replace (its directory entry fsynced too), then drop the log
    /// and any old or stale snapshots. An injected `cache.persist_io`
    /// fault tears the temp file and leaves the previous generation.
    fn compact(&mut self, cache: &QueryCache) -> io::Result<SaveReport> {
        let next = self.generation + 1;
        let entries = cache.all_entries();
        let mut buf = encode_header(SNAP_MAGIC, self.fingerprint, next);
        for &(key, result) in &entries {
            buf.push_str(&encode_entry(key, result));
        }
        let dst = self.dir.join(format!("snap-{next}.bf4q"));
        durable::replace(&dst, buf.as_bytes(), Some("cache.persist_io"))?;

        // The new snapshot is durable; stale bytes can go. Removal
        // failures are non-fatal — they only waste disk.
        let _ = fs::remove_file(self.dir.join(LOG_NAME));
        if let Ok(dir) = fs::read_dir(&self.dir) {
            for entry in dir.flatten() {
                let path = entry.path();
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                let is_old_snap = name
                    .strip_prefix("snap-")
                    .and_then(|r| r.strip_suffix(".bf4q"))
                    .and_then(|g| g.parse::<u64>().ok())
                    .is_some_and(|gen| gen != next);
                if is_old_snap || name.ends_with(".bf4q.tmp") {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        self.generation = next;
        self.snapshot_records = entries.len() as u64;
        self.log_records = 0;
        self.saw_stale = false;
        for (k, _) in &entries {
            self.persisted.insert(*k);
        }
        Ok(SaveReport {
            generation: next,
            appended: 0,
            compacted: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique scratch directory per test invocation, no clock involved.
    fn scratch(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bf4-persist-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn filled_cache(n: u128) -> std::sync::Arc<QueryCache> {
        let cache = QueryCache::new(4096);
        for k in 0..n {
            let verdict = if k % 2 == 0 { SatResult::Sat } else { SatResult::Unsat };
            cache.insert(k.wrapping_mul(0x1234_5678_9abc) + 1, verdict);
        }
        cache
    }

    #[test]
    fn roundtrip_restores_every_entry() {
        let dir = scratch("roundtrip");
        let cache = filled_cache(100);
        let (mut store, load) = Store::open(&dir, &cache).unwrap();
        assert_eq!(load, LoadReport::default());
        let saved = store.save(&cache).unwrap();
        assert!(saved.compacted, "first save must write a snapshot");

        let warm = QueryCache::new(4096);
        let (_, load) = Store::open(&dir, &warm).unwrap();
        assert_eq!(load.loaded, 100);
        assert_eq!(load.corrupt_records, 0);
        assert_eq!(load.generation, 1);
        assert_eq!(warm.all_entries(), cache.all_entries());
        assert_eq!(warm.stats().preloaded, 100);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn steady_state_saves_append_then_compact() {
        let dir = scratch("append");
        let cache = filled_cache(100);
        let (mut store, _) = Store::open(&dir, &cache).unwrap();
        store.save(&cache).unwrap();

        // A second session: warm-start, add a few entries, save → append.
        let warm = QueryCache::new(4096);
        let (mut store, _) = Store::open(&dir, &warm).unwrap();
        warm.insert(0xdead_0001, SatResult::Sat);
        warm.insert(0xdead_0002, SatResult::Unsat);
        let saved = store.save(&warm).unwrap();
        assert!(!saved.compacted);
        assert_eq!(saved.appended, 2);
        assert!(dir.join(LOG_NAME).exists());
        // Saving again with nothing new appends nothing.
        assert_eq!(store.save(&warm).unwrap().appended, 0);

        let warm2 = QueryCache::new(4096);
        let (_, load) = Store::open(&dir, &warm2).unwrap();
        assert_eq!(load.loaded, 102);
        assert_eq!(warm2.get(0xdead_0001), Some(SatResult::Sat));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_torn_wal_tail_keeps_every_key() {
        let dir = scratch("torn-wal");
        let cache = filled_cache(100);
        let (mut store, _) = Store::open(&dir, &cache).unwrap();
        store.save(&cache).unwrap();
        let warm = QueryCache::new(4096);
        let (mut store, _) = Store::open(&dir, &warm).unwrap();
        warm.insert(0xdead_0001, SatResult::Sat);
        warm.insert(0xdead_0002, SatResult::Unsat);
        assert_eq!(store.save(&warm).unwrap().appended, 2);

        // A crash mid-append leaves half a record on the log's tail.
        let wal = dir.join(LOG_NAME);
        let record = encode_entry(0xdead_0003, SatResult::Sat);
        let mut bytes = fs::read(&wal).unwrap();
        bytes.extend_from_slice(&record.as_bytes()[..record.len() / 2]);
        fs::write(&wal, &bytes).unwrap();

        // The next session appends after it; no new record may be glued
        // onto the torn bytes.
        let next = QueryCache::new(4096);
        let (mut store, load) = Store::open(&dir, &next).unwrap();
        assert_eq!((load.loaded, load.corrupt_records), (102, 1));
        next.insert(0xbeef_0001, SatResult::Unsat);
        next.insert(0xbeef_0002, SatResult::Sat);
        assert_eq!(store.save(&next).unwrap().appended, 2);

        let last = QueryCache::new(4096);
        let (_, load) = Store::open(&dir, &last).unwrap();
        assert_eq!((load.loaded, load.corrupt_records), (104, 0));
        for key in [0xdead_0001, 0xdead_0002, 0xbeef_0001, 0xbeef_0002] {
            assert!(last.get(key).is_some(), "key {key:x} lost");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_snapshot_salvages_the_valid_prefix() {
        let dir = scratch("truncate");
        let cache = filled_cache(50);
        let (mut store, _) = Store::open(&dir, &cache).unwrap();
        store.save(&cache).unwrap();
        let snap = dir.join("snap-1.bf4q");
        let bytes = fs::read(&snap).unwrap();
        // Cut mid-record: the torn tail must be dropped, the prefix kept.
        fs::write(&snap, &bytes[..bytes.len() - 20]).unwrap();

        let warm = QueryCache::new(4096);
        let (_, load) = Store::open(&dir, &warm).unwrap();
        assert_eq!(load.loaded, 49);
        assert_eq!(load.corrupt_records, 1);
        assert_eq!(warm.stats().corrupt_records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_rejects_the_file_wholesale() {
        let dir = scratch("fingerprint");
        fs::create_dir_all(&dir).unwrap();
        // A snapshot written under a different canonicalization scheme:
        // same format, different fingerprint, internally consistent.
        let fake_fp = bf4_smt::schema_fingerprint() ^ 1;
        let mut buf = encode_header(SNAP_MAGIC, fake_fp, 1);
        buf.push_str(&encode_entry(42, SatResult::Sat));
        fs::write(dir.join("snap-1.bf4q"), &buf).unwrap();

        let cache = QueryCache::new(4096);
        let (mut store, load) = Store::open(&dir, &cache).unwrap();
        assert_eq!(load.loaded, 0, "stale entries must not be offered");
        assert_eq!(load.stale_files, 1);
        assert_eq!(cache.get(42), None);
        // The next save reclaims the stale file with a fresh snapshot.
        cache.insert(7, SatResult::Unsat);
        let saved = store.save(&cache).unwrap();
        assert!(saved.compacted);
        let warm = QueryCache::new(4096);
        let (_, load) = Store::open(&dir, &warm).unwrap();
        assert_eq!((load.loaded, load.stale_files), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_mid_compaction_keeps_the_previous_generation() {
        let dir = scratch("midcompact");
        let cache = filled_cache(30);
        let (mut store, _) = Store::open(&dir, &cache).unwrap();
        store.save(&cache).unwrap();
        // Simulate a crash between temp-file write and rename: a torn
        // temp file next to the good generation-1 snapshot.
        fs::write(dir.join("snap-2.bf4q.tmp"), b"bf4qc 1 torn").unwrap();

        let warm = QueryCache::new(4096);
        let (_, load) = Store::open(&dir, &warm).unwrap();
        assert_eq!(load.generation, 1);
        assert_eq!(load.loaded, 30);
        assert_eq!(load.corrupt_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_never_reaches_disk() {
        let dir = scratch("unknown");
        let cache = QueryCache::new(64);
        cache.insert(1, SatResult::Sat);
        cache.insert(2, SatResult::Unknown);
        let (mut store, _) = Store::open(&dir, &cache).unwrap();
        store.save(&cache).unwrap();
        let warm = QueryCache::new(64);
        let (_, load) = Store::open(&dir, &warm).unwrap();
        assert_eq!(load.loaded, 1);
        assert_eq!(warm.get(2), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
