//! Host-clock readings of this process, from `/proc/self` (Linux).

use std::fs;

/// Clock ticks per second of `/proc/self/stat` times. Linux has reported
/// `USER_HZ = 100` to user space on every architecture since 2.6.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time so far (user, system) in seconds, over all threads.
pub fn cpu_s() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name is parenthesised and may hold spaces: split after it.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of the full line are utime and stime; `rest` starts
    // at field 3.
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) / TICKS_PER_S, tick(12) / TICKS_PER_S)
}

fn status_field(name: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|v| v.trim_start_matches(':').split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Threads alive in this process now.
pub fn threads() -> u64 {
    status_field("Threads")
}
