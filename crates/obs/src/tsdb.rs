//! `tsdb.bf4t` — a persistent per-request time-series.
//!
//! The daemon appends one record per submission so latency / verdict /
//! cache / degradation trends survive restarts. The bytes on disk are
//! handled by [`crate::durable`], the same record log as the query cache
//! and the shim journal (DESIGN.md §10):
//!
//! * one record per sealed line: a JSON object (fixed key set, parsed
//!   with [`crate::json`]) followed by ` #<16 lowercase hex>`;
//! * loads salvage per line — a torn tail, a bit flip or a truncated
//!   record drops that line (counted), never the file;
//! * appends are plain `O_APPEND` writes that cut a torn tail off first
//!   (no fsync per request — the checksum makes torn tails detectable,
//!   and losing the last samples of a crashed daemon is acceptable for
//!   telemetry);
//! * a size cap turns the file into a ring: when an append would push
//!   the file past `cap_bytes`, the newest records are rewritten down to
//!   half the cap by an atomic replace, so the series is bounded but
//!   always ends "now".

use crate::durable::{self, Appender};
use crate::json::{self, Value};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// The time-series file name inside `--cache-dir`.
pub const TSDB_FILE: &str = "tsdb.bf4t";

/// Default ring cap in bytes (~4 MiB ≈ tens of thousands of requests).
pub const DEFAULT_CAP_BYTES: u64 = 4 * 1024 * 1024;

/// One per-request record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Wall-clock milliseconds since the unix epoch (set by the daemon).
    pub ts_ms: u64,
    /// The request ID minted by the daemon (`req-<n>`).
    pub req: String,
    /// Program name submitted.
    pub program: String,
    /// Request wall time in microseconds.
    pub wall_micros: u64,
    /// Bugs found (round 1).
    pub bugs: u64,
    /// Bugs remaining after fixes.
    pub after_fixes: u64,
    /// Bugs left undecided (solver Unknown) — the unknown-rate numerator.
    pub undecided: u64,
    /// Round-1 verdicts reused from the store.
    pub skips: u64,
    /// Round-1 verdicts re-verified.
    pub reverified: u64,
    /// Query-cache hits during this request.
    pub cache_hits: u64,
    /// Cache hits answered by warm-started entries.
    pub warm_hits: u64,
    /// Whether any pipeline stage degraded.
    pub degraded: bool,
}

impl Sample {
    /// Render the record's JSON payload (no checksum, no newline).
    /// Key order is fixed so a record's bytes — and hence its checksum —
    /// are deterministic for a given sample.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(
            s,
            "{{\"ts_ms\":{},\"req\":{},\"program\":{},\"wall_micros\":{},\"bugs\":{},\
             \"after_fixes\":{},\"undecided\":{},\"skips\":{},\"reverified\":{},\
             \"cache_hits\":{},\"warm_hits\":{},\"degraded\":{}}}",
            self.ts_ms,
            json::escape(&self.req),
            json::escape(&self.program),
            self.wall_micros,
            self.bugs,
            self.after_fixes,
            self.undecided,
            self.skips,
            self.reverified,
            self.cache_hits,
            self.warm_hits,
            self.degraded,
        );
        s
    }

    /// Parse a record's JSON payload back; `None` for anything malformed.
    pub fn parse(payload: &str) -> Option<Sample> {
        let v = json::parse(payload).ok()?;
        let obj = v.as_obj()?;
        if obj.len() != 12 {
            return None;
        }
        let num = |k: &str| obj.get(k).and_then(Value::as_u64);
        Some(Sample {
            ts_ms: num("ts_ms")?,
            req: obj.get("req")?.as_str()?.to_string(),
            program: obj.get("program")?.as_str()?.to_string(),
            wall_micros: num("wall_micros")?,
            bugs: num("bugs")?,
            after_fixes: num("after_fixes")?,
            undecided: num("undecided")?,
            skips: num("skips")?,
            reverified: num("reverified")?,
            cache_hits: num("cache_hits")?,
            warm_hits: num("warm_hits")?,
            degraded: match obj.get("degraded")? {
                Value::Bool(b) => *b,
                _ => return None,
            },
        })
    }
}

/// What a load salvaged.
#[derive(Clone, Debug, Default)]
pub struct LoadOutcome {
    /// Records recovered, oldest first.
    pub samples: Vec<Sample>,
    /// Lines dropped as torn / flipped / malformed.
    pub corrupt_records: u64,
}

/// Load every valid record from a time-series file. A missing file is an
/// empty series; each bad line is dropped and counted, never fatal.
pub fn load(path: &Path) -> io::Result<LoadOutcome> {
    let mut out = LoadOutcome::default();
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for line in durable::salvage(&bytes) {
        match line.and_then(Sample::parse) {
            Some(s) => out.samples.push(s),
            None => out.corrupt_records += 1,
        }
    }
    Ok(out)
}

/// The append handle: one file, one cap.
#[derive(Debug)]
pub struct Tsdb {
    path: PathBuf,
    cap_bytes: u64,
}

impl Tsdb {
    /// Open (lazily — the file is created on first append) a series at
    /// `path` with ring cap `cap_bytes` (0 means [`DEFAULT_CAP_BYTES`]).
    pub fn open(path: impl Into<PathBuf>, cap_bytes: u64) -> Tsdb {
        Tsdb {
            path: path.into(),
            cap_bytes: if cap_bytes == 0 {
                DEFAULT_CAP_BYTES
            } else {
                cap_bytes
            },
        }
    }

    /// The series path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record; compacts the ring first when the file is at
    /// cap. Returns whether a compaction ran.
    pub fn append(&self, sample: &Sample) -> io::Result<bool> {
        let line = durable::seal(&sample.render());
        let mut log = Appender::open(&self.path)?;
        let compacted = log.len() + line.len() as u64 > self.cap_bytes;
        if compacted {
            drop(log);
            self.compact()?;
            log = Appender::open(&self.path)?;
        }
        log.append(line.as_bytes(), None)?;
        Ok(compacted)
    }

    /// Rewrite the file keeping only the newest records that fit in half
    /// the cap, by an atomic replace: a crash mid-compaction leaves
    /// either the old file or the new one, never a torn mix.
    fn compact(&self) -> io::Result<()> {
        let keep_budget = self.cap_bytes / 2;
        let loaded = load(&self.path)?;
        let mut kept: Vec<String> = Vec::new();
        let mut bytes = 0u64;
        for s in loaded.samples.iter().rev() {
            let line = durable::seal(&s.render());
            if bytes + line.len() as u64 > keep_budget {
                break;
            }
            bytes += line.len() as u64;
            kept.push(line);
        }
        kept.reverse();
        durable::replace(&self.path, kept.concat().as_bytes(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Sample {
        Sample {
            ts_ms: 1_700_000_000_000 + n,
            req: format!("req-{n}"),
            program: "nat".to_string(),
            wall_micros: 1000 + n,
            bugs: 5,
            after_fixes: 0,
            undecided: u64::from(n.is_multiple_of(7)),
            skips: n % 3,
            reverified: 5 - n % 3,
            cache_hits: 2 * n,
            warm_hits: n,
            degraded: n.is_multiple_of(5),
        }
    }

    #[test]
    fn append_then_load_round_trips_in_order() {
        let dir = std::env::temp_dir().join("bf4-tsdb-rt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let db = Tsdb::open(dir.join(TSDB_FILE), 0);
        for n in 1..=5 {
            db.append(&sample(n)).unwrap();
        }
        let out = load(db.path()).unwrap();
        assert_eq!(out.corrupt_records, 0);
        assert_eq!(
            out.samples,
            (1..=5).map(sample).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_flipped_lines_are_dropped_and_counted() {
        let dir = std::env::temp_dir().join("bf4-tsdb-salvage");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(TSDB_FILE);
        let db = Tsdb::open(&path, 0);
        db.append(&sample(1)).unwrap();
        db.append(&sample(2)).unwrap();
        // Flip one byte of the second record, then tear a third append
        // mid-line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let idx = text.rfind("req-2").unwrap();
        text.replace_range(idx..idx + 5, "req-9");
        text.push_str(&durable::seal(&sample(3).render())[..20]);
        std::fs::write(&path, &text).unwrap();
        let out = load(&path).unwrap();
        assert_eq!(out.corrupt_records, 2);
        assert_eq!(out.samples, vec![sample(1)]);
        // The series keeps accepting appends after salvage.
        db.append(&sample(4)).unwrap();
        let out = load(&path).unwrap();
        assert_eq!(out.samples.last().unwrap().req, "req-4");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_compaction_bounds_the_file_and_keeps_the_newest() {
        let dir = std::env::temp_dir().join("bf4-tsdb-ring");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let line_len = durable::seal(&sample(1).render()).len() as u64;
        let cap = line_len * 6;
        let db = Tsdb::open(dir.join(TSDB_FILE), cap);
        let mut compactions = 0;
        for n in 1..=40 {
            if db.append(&sample(n)).unwrap() {
                compactions += 1;
            }
        }
        assert!(compactions > 0, "the ring never compacted");
        assert!(std::fs::metadata(db.path()).unwrap().len() <= cap);
        let out = load(db.path()).unwrap();
        assert_eq!(out.corrupt_records, 0);
        assert_eq!(out.samples.last().unwrap().req, "req-40");
        // Contiguous newest suffix: strictly increasing reqs ending at 40.
        let first = 41 - out.samples.len() as u64;
        assert_eq!(
            out.samples,
            (first..=40).map(sample).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn escaped_program_names_survive_the_round_trip() {
        let mut s = sample(1);
        s.program = "we\"ird\nname\t∆".to_string();
        let line = durable::seal(&s.render());
        let payload = durable::unseal(line.trim_end()).unwrap();
        assert_eq!(Sample::parse(payload), Some(s));
    }

    #[test]
    fn uppercase_hex_checksum_is_rejected_as_noncanonical() {
        let payload = sample(1).render();
        let line = format!("{payload} #{:016X}\n", durable::fnv1a(payload.as_bytes()));
        let loaded: Vec<_> = durable::salvage(line.as_bytes()).collect();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].is_none(), line != durable::seal(&payload));
    }
}
