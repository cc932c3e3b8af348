//! CPU time and peak memory of this process (Linux only).

use std::fs;

/// Kernel clock ticks per second (`USER_HZ`), fixed at 100 by the Linux
/// ABI for `/proc/<pid>/stat`.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used so far.
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` is missing or malformed.
pub fn cpu_secs() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_secs(&stat)
}

fn parse_cpu_secs(stat: &str) -> Result<f64, String> {
    // The command name may hold spaces and parentheses; fields resume
    // after the last ')'. utime and stime are fields 14 and 15, i.e. the
    // 12th and 13th after the name.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("no ')' in /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("bad field {i} in /proc/self/stat"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// CPU seconds the hypervisor has stolen from this machine's CPUs so far
/// (the `steal` column of `/proc/stat`): time the benchmark's threads were
/// runnable but the virtual CPUs were not running.
///
/// # Errors
///
/// Returns a message when `/proc/stat` is missing or malformed.
pub fn steal_secs() -> Result<f64, String> {
    let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    stat.lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<u64>().ok())
        .map(|ticks| ticks as f64 / USER_HZ)
        .ok_or_else(|| "no steal column in /proc/stat".to_string())
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU nanoseconds the calling thread has used so far.
///
/// # Panics
///
/// Panics if the kernel refuses the thread CPU clock, which Linux
/// always provides.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // of 64-bit Linux (two 64-bit fields), and `clock_gettime` writes only
    // through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID unavailable");
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is missing or malformed.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_utime_and_stime_after_an_odd_command_name() {
        let stat = "4242 (a) b (c)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0";
        assert_eq!(parse_cpu_secs(stat), Ok(3.0));
        assert!(parse_cpu_secs("4242 no name").is_err());
    }

    #[test]
    fn reads_this_process() {
        assert!(cpu_secs().unwrap() >= 0.0);
        assert!(steal_secs().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn thread_cpu_clock_advances_with_work_not_sleep() {
        let t0 = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let slept = thread_cpu_ns() - t0;
        let t1 = thread_cpu_ns();
        let mut x = 0u64;
        while thread_cpu_ns() - t1 < 5_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(slept < 5_000_000, "sleeping used {slept} ns of CPU");
        assert!(x > 0);
    }
}
