//! One durable record log: how the stores' bytes reach and leave disk.
//!
//! The query-cache store (`bf4-engine`), the telemetry series
//! ([`crate::tsdb`]) and the shim's group-commit journal (`bf4-shim`)
//! each keep their own record format — headers, generations, frames,
//! JSON samples — on top of the pieces here:
//!
//! * the **sealed line** `payload #<16 lowercase hex>\n`, the hex being
//!   the FNV-1a-64 of the payload ([`seal`]). [`unseal`] is
//!   canonical-strict: any other checksum spelling (uppercase, a sign,
//!   another length) is corrupt, so every single-byte change of a sealed
//!   line is detected;
//! * **per-line salvage** ([`salvage`]): each line verifies on its own, so
//!   a torn tail, a truncation or a bit flip costs the lines it touches
//!   and never the rest;
//! * an **append** that never glues a record onto a torn tail
//!   ([`Appender`]): bytes past the last whole record — a crash mid-write
//!   or a failed append — are cut off before the next record lands;
//! * **atomic replace** ([`replace`]): a temp file in the same directory,
//!   fsync, rename over the destination, then fsync of the directory, so
//!   a crash at any point leaves the old bytes or the new ones.
//!
//! Fault injection stays with the callers' named sites: a write given a
//! site tears half-way when that site fires ([`crate::fault`]), leaving
//! exactly the on-disk state a crash mid-write leaves.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// FNV-1a-64 offset basis: the state before any byte is folded in.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// Fold more bytes into a running FNV-1a-64 state (start from
/// [`FNV_OFFSET`]). Each byte multiplies the state by an odd prime, a
/// bijection on `u64`, so any single-byte change changes the hash.
pub fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Seal `payload` (which must not contain a newline) into its on-disk
/// line: `payload #<16 lowercase hex>\n`.
pub fn seal(payload: &str) -> String {
    format!("{payload} #{:016x}\n", fnv1a(payload.as_bytes()))
}

/// The payload of one sealed line (without its newline), or `None` unless
/// it ends in ` #` and exactly 16 lowercase hex digits equal to the
/// payload's FNV-1a-64.
pub fn unseal(line: &str) -> Option<&str> {
    let (payload, sum) = line.rsplit_once(" #")?;
    if sum.len() != 16 || !sum.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    let sum = u64::from_str_radix(sum, 16).ok()?;
    (sum == fnv1a(payload.as_bytes())).then_some(payload)
}

/// Per-line salvage of a file of sealed lines: each non-empty line in
/// order, as its payload, or `None` when the line is torn (no final
/// newline), not UTF-8, or fails its seal. A bad line never hides the
/// lines around it.
pub fn salvage(bytes: &[u8]) -> impl Iterator<Item = Option<&str>> + '_ {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .filter(|line| *line != b"\n")
        .map(|line| std::str::from_utf8(line.strip_suffix(b"\n")?).ok().and_then(unseal))
}

/// The error of the caller's fault `site`, when it fires on this write.
fn fired(site: Option<&'static str>) -> Option<io::Error> {
    site.filter(|s| crate::fault::fire(s))
        .map(|s| io::Error::other(format!("injected fault: {s}")))
}

/// An append-only log file held open. It knows where its last whole
/// record ends, so a record never lands after a torn tail: bytes past
/// that point are cut off first.
pub struct Appender {
    file: File,
    /// End of the last whole record: where the next one starts.
    len: u64,
    /// End of the last record a [`sync`](Self::sync) made durable.
    synced: u64,
    /// The file may hold bytes past `len` (a failed or torn write).
    dirty: bool,
}

impl Appender {
    /// Open `path` for appending, creating it if absent. A tail after the
    /// last newline — a record a crash cut short — is cut off before the
    /// first append.
    pub fn open(path: &Path) -> io::Result<Appender> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let size = file.metadata()?.len();
        let len = whole_records_len(&file, size)?;
        Ok(Appender {
            file,
            len,
            synced: len,
            dirty: len != size,
        })
    }

    /// Bytes of whole records in the file.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file holds no whole record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `record` (whole sealed lines) in one write. A tail left by
    /// a torn or failed earlier write is cut off first. When the caller's
    /// fault `site` fires, only the first half of `record` lands — the
    /// state a crash mid-write leaves — and the append fails.
    pub fn append(&mut self, record: &[u8], site: Option<&'static str>) -> io::Result<()> {
        if self.dirty {
            // O_APPEND: the next write lands at the new end, no seek.
            self.file.set_len(self.len)?;
            self.dirty = false;
        }
        if let Some(err) = fired(site) {
            let _ = self.file.write_all(&record[..record.len() / 2]);
            let _ = self.file.sync_all();
            self.dirty = true;
            return Err(err);
        }
        if let Err(e) = self.file.write_all(record) {
            self.dirty = true;
            return Err(e);
        }
        self.len += record.len() as u64;
        Ok(())
    }

    /// fsync the file. If it fails, nothing appended since the last
    /// successful sync counts as written: the next append cuts it off.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Err(e) = self.file.sync_all() {
            self.len = self.synced;
            self.dirty = true;
            return Err(e);
        }
        self.synced = self.len;
        Ok(())
    }
}

/// Length of the prefix of `file` (of `size` bytes) that ends in a
/// newline: everything but a torn last line.
fn whole_records_len(file: &File, size: u64) -> io::Result<u64> {
    use std::os::unix::fs::FileExt;
    let mut last = [b'\n'];
    if size > 0 {
        file.read_exact_at(&mut last, size - 1)?;
    }
    if last[0] == b'\n' {
        return Ok(size);
    }
    // A torn tail (rare): scan back to the newline before the tear.
    let mut bytes = vec![0; size as usize];
    file.read_exact_at(&mut bytes, 0)?;
    Ok(bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i as u64 + 1))
}

/// Replace `path` with `bytes` atomically: write `<path>.tmp` in the same
/// directory, fsync it, rename it over `path`, then fsync the directory
/// so the rename itself is durable. A crash (or the caller's fault
/// `site`, which tears the temp file half-way) at any point leaves
/// `path` holding its old bytes or the new ones, never a mix. One
/// replace of a given path runs at a time. An existing `path` that is
/// not a regular file (a device such as `/dev/null`, a directory) is
/// refused rather than renamed over.
pub fn replace(path: &Path, bytes: &[u8], site: Option<&'static str>) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let not_a_file = || io::Error::new(io::ErrorKind::InvalidInput, "replace needs a regular file");
    if fs::metadata(path).is_ok_and(|m| !m.is_file()) {
        return Err(not_a_file());
    }
    let mut tmp_name = path.file_name().ok_or_else(not_a_file)?.to_os_string();
    tmp_name.push(".tmp");
    let tmp = dir.join(tmp_name);
    let mut f = File::create(&tmp)?;
    if let Some(err) = fired(site) {
        let _ = f.write_all(&bytes[..bytes.len() / 2]);
        let _ = f.sync_all();
        return Err(err);
    }
    f.write_all(bytes)?;
    f.sync_all()?;
    fs::rename(&tmp, path)?;
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_update(fnv1a(b"fo"), b"o"), fnv1a(b"foo"));
    }

    #[test]
    fn unseal_is_canonical_strict() {
        let line = seal("x y");
        let body = line.trim_end();
        assert_eq!(unseal(body), Some("x y"));
        let sum = &body[body.len() - 16..];
        for bad in [
            format!("x y #{}", sum.to_uppercase()),
            format!("x y #+{}", &sum[1..]),
            format!("x y #0{sum}"),
            format!("x y #{}", &sum[1..]),
        ] {
            if bad != body {
                assert_eq!(unseal(&bad), None, "{bad}");
            }
        }
    }

    #[test]
    fn replace_refuses_a_destination_that_is_not_a_regular_file() {
        let dir = std::env::temp_dir().join(format!("bf4-durable-dir-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let err = replace(&dir, b"x", None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(dir.is_dir());
        fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn salvage_skips_empty_lines_and_flags_the_torn_tail() {
        let mut bytes = seal("a").into_bytes();
        bytes.push(b'\n');
        bytes.extend_from_slice(seal("b").as_bytes());
        bytes.extend_from_slice(&seal("c").as_bytes()[..4]);
        let got: Vec<Option<&str>> = salvage(&bytes).collect();
        assert_eq!(got, vec![Some("a"), Some("b"), None]);
    }
}
