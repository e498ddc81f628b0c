//! The host record printed with every result, the process memory
//! high-water mark, and the cache-sensitive reference loop.
//!
//! None of these gate anything: they let a reader tell a slow host phase
//! from a slower program.

use std::path::Path;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Unified cache size of a level, as the kernel prints it (`2048K`).
fn cache_size(level: u32) -> String {
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(l), Some(t)) = (read("level"), read("type")) else {
            continue;
        };
        if l.trim() == level.to_string() && t.trim() == "Unified" {
            return read("size").map_or("?".into(), |s| s.trim().to_string());
        }
    }
    "?".into()
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "?".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "?".into();
    };
    let mut best = (0usize, "?".to_string());
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fs)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fs.to_string());
        }
    }
    best.1
}

/// One line describing the host.
pub fn record(run_dir: &Path) -> String {
    format!(
        "host: nproc={} cpu=\"{}\" l2={} l3={} fs={}",
        nproc(),
        cpu_model(),
        cache_size(2),
        cache_size(3),
        fs_type(run_dir)
    )
}

/// Reset the process memory high-water mark, so that `peak_rss_mb`
/// reads the peak of what runs after this call alone, not of earlier
/// untimed steps. Free heap pages go back to the system first, so the
/// mark starts from the memory in use rather than from what earlier steps
/// left cached in the allocator.
pub fn reset_peak_rss() -> Result<(), String> {
    release_free_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the memory high-water mark: {e}"))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only hands free pages back to the
    // system; it touches no memory in use.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Process memory high-water mark in MiB (`VmHWM`) since the last
/// `reset_peak_rss`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds for a fixed dependent random walk over an 8 MiB table:
/// every step is a likely cache miss, so the figure follows the host's
/// memory-system phase and nothing else.
pub fn reference_loop_ms() -> f64 {
    const SLOTS: usize = 8 * 1024 * 1024 / 4;
    const STEPS: usize = 2_000_000;
    // A single cycle through all slots (Sattolo's shuffle), fixed seed.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut rng = crate::rng::Rng::new(0, "reference-loop");
    for i in (1..SLOTS).rev() {
        let j = rng.below(i);
        next.swap(i, j);
    }
    let t0 = Instant::now();
    let mut at = 0u32;
    for _ in 0..STEPS {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    t0.elapsed().as_secs_f64() * 1e3
}
