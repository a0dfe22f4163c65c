//! Process and machine facts read from `/proc` and `/sys`.

use std::path::Path;

/// The process's user plus system CPU time in seconds (`/proc/self/stat`
/// fields 14 and 15, in USER_HZ = 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |field: usize| -> f64 {
        fields
            .get(field - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0) as f64
    };
    (ticks(14) + ticks(15)) / 100.0
}

/// The process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The number of online CPUs (`/sys/devices/system/cpu/online`, a list of
/// ranges such as `0-3,6`).
pub fn nproc() -> usize {
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    online
        .trim()
        .split(',')
        .filter(|r| !r.is_empty())
        .map(|range| match range.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => 1,
        })
        .sum()
}

/// `std::thread::available_parallelism`, or 1 when it cannot be read.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git work tree.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_owned();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_owned())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The compiler that built the benchmark.
pub fn rustc_version() -> &'static str {
    env!("E2EBENCH_RUSTC_VERSION")
}
