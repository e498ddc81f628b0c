//! Crash properties of the one durable record log (`bf4_obs::durable`).
//!
//! * **Salvage.** N sealed records, then the file cut at any byte offset
//!   and/or any one byte flipped: salvage returns exactly the records
//!   still intact, in order, and never an altered payload.
//! * **Replace.** A replace torn half-way by the caller's fault site, or
//!   crashed at any offset of its temp-file write, leaves the destination
//!   holding its old bytes, and the next replace lands the new bytes
//!   exactly.
//! * **Append.** An append after a tail torn at any offset returns every
//!   appended record: the torn bytes are cut off, never glued onto.

use bf4_obs::durable::{replace, salvage, seal, Appender};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bf4-durable-props-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `n` payloads drawn from a seed. The alphabet holds the seal's own
/// characters (space, `#`, lowercase hex) so payloads can look like
/// seals.
fn payloads(seed: u64, n: usize) -> Vec<String> {
    const ALPHABET: &[u8] = b"0123456789abcdef #xyz{}\":";
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n)
        .map(|_| {
            let len = (next() % 24) as usize;
            (0..len)
                .map(|_| ALPHABET[(next() % ALPHABET.len() as u64) as usize] as char)
                .collect()
        })
        .collect()
}

/// The sealed lines of `records`, concatenated, with each line's end.
fn sealed(records: &[String]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for r in records {
        bytes.extend_from_slice(seal(r).as_bytes());
        ends.push(bytes.len());
    }
    (bytes, ends)
}

fn at(ppm: u32, len: usize) -> usize {
    (len as u64 * u64::from(ppm) / 1_000_000) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn salvage_returns_exactly_the_intact_records(
        seed: u64,
        n in 1usize..24,
        cut_ppm in 0u32..=1_000_000,
        flip_ppm in 0u32..1_000_000,
        mask in 1u8..=255,
        damage in 0u8..3,
    ) {
        let records = payloads(seed, n);
        let (full, ends) = sealed(&records);
        // damage 0: cut only; 1: flip only; 2: both.
        let cut = if damage == 1 { full.len() } else { at(cut_ppm, full.len()) };
        let mut bytes = full[..cut].to_vec();
        let flip = (damage > 0 && !bytes.is_empty()).then(|| at(flip_ppm, bytes.len()));
        if let Some(pos) = flip {
            bytes[pos] ^= mask;
        }
        // Record k spans [start, end). It is intact when all of its bytes
        // landed unchanged and the newline before it (the end of record
        // k-1) is unchanged too, so that it still starts a line.
        let intact: Vec<&str> = records
            .iter()
            .enumerate()
            .filter(|&(k, _)| {
                let start = if k == 0 { 0 } else { ends[k - 1] };
                let before = k.checked_sub(1).map(|_| start - 1);
                ends[k] <= cut
                    && flip.is_none_or(|p| !(start..ends[k]).contains(&p) && Some(p) != before)
            })
            .map(|(_, r)| r.as_str())
            .collect();
        let salvaged: Vec<&str> = salvage(&bytes).flatten().collect();
        prop_assert_eq!(salvaged, intact);
    }

    #[test]
    fn torn_replace_leaves_the_old_bytes(seed: u64, n in 1usize..16, torn_ppm in 0u32..=1_000_000) {
        let dir = scratch();
        let path = dir.join("store");
        let (old, _) = sealed(&payloads(seed, n));
        let (new, _) = sealed(&payloads(seed.rotate_left(17), n + 1));
        replace(&path, &old, None).unwrap();
        // The caller's fault site tears the temp file half-way.
        bf4_obs::fault::install(bf4_obs::FaultPlan::parse("cache.persist_io=@1").unwrap());
        let torn = replace(&path, &new, Some("cache.persist_io"));
        bf4_obs::fault::clear();
        prop_assert!(torn.is_err());
        prop_assert_eq!(std::fs::read(&path).unwrap(), old.clone());
        // A crash mid-replace leaves a temp file cut at any offset next to
        // the destination, and nothing else.
        std::fs::write(dir.join("store.tmp"), &new[..at(torn_ppm, new.len())]).unwrap();
        prop_assert_eq!(std::fs::read(&path).unwrap(), old);
        replace(&path, &new, None).unwrap();
        prop_assert_eq!(std::fs::read(&path).unwrap(), new);
        prop_assert!(!dir.join("store.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_a_torn_tail_returns_every_record(
        seed: u64,
        n in 0usize..12,
        m in 1usize..8,
        torn_ppm in 0u32..1_000_000,
    ) {
        let dir = scratch();
        let path = dir.join("log");
        let records = payloads(seed, n + 1 + m);
        let (before, _) = sealed(&records[..n]);
        let torn = seal(&records[n]);
        let mut on_disk = before.clone();
        on_disk.extend_from_slice(&torn.as_bytes()[..at(torn_ppm, torn.len())]);
        std::fs::write(&path, &on_disk).unwrap();

        let mut log = Appender::open(&path).unwrap();
        prop_assert_eq!(log.len(), before.len() as u64);
        for r in &records[n + 1..] {
            log.append(seal(r).as_bytes(), None).unwrap();
        }
        log.sync().unwrap();
        let back = std::fs::read(&path).unwrap();
        let got: Vec<Option<&str>> = salvage(&back).collect();
        let want: Vec<Option<&str>> = records[..n]
            .iter()
            .chain(&records[n + 1..])
            .map(|r| Some(r.as_str()))
            .collect();
        prop_assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).ok();
    }
}
