//! CPU time, read from `/proc`: the cost side of `cpu_ms_per_bag`.
//! Unlike wall time it leaves out time spent waiting for a CPU, so it
//! moves with the work the program does rather than with the load
//! other tenants put on a shared host.

/// CPU time of the calling thread, in seconds
/// (`/proc/thread-self/schedstat`, nanosecond resolution).
pub fn thread_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// CPU time of the whole process, every thread including those that
/// have ended, in seconds (`utime + stime` of `/proc/self/stat`, in
/// Linux's fixed 100 Hz user-visible clock ticks).
pub fn process_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized command name start at field 3;
    // utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}
