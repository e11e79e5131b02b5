//! Process CPU time, memory, context switches, CPU affinity and the
//! host fingerprint: read from `/proc` where it has them, otherwise
//! through the two C library calls `std` already links (no `libc` crate
//! in the build).

use std::fs;

/// `clock_gettime` and the affinity calls, declared by hand. The struct
/// and constant below are the 64-bit Linux ABI's; other targets fall
/// back to `/proc` and run unpinned.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    /// Words of a CPU mask: 1024 CPUs, glibc's own `cpu_set_t`.
    pub const MASK_WORDS: usize = 16;
    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        pub fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
    }
}

/// Restrict the calling thread, and every thread it spawns from now on,
/// to one CPU — the highest-numbered one it may run on, away from the
/// interrupts CPU 0 serves. Returns that CPU, or `None` when the process
/// stays as it was.
///
/// The workloads run five to seven threads. On the 2-vCPU reference host
/// that is more threads than cores, and which two ran together was the
/// scheduler's choice: saturation segments of one run differed by up to
/// 40 %. On one CPU the threads take turns, a segment costs its CPU work
/// and nothing else, and segments agree within 3 %.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut allowed = [0u64; sys::MASK_WORDS];
        let bytes = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is writable and `bytes` long; pid 0 is the caller.
        if unsafe { sys::sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..64 * sys::MASK_WORDS)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; sys::MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is readable and `bytes` long.
        (unsafe { sys::sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    None
}

/// Kernel clock ticks per second as `/proc/*/stat` reports them. Fixed
/// at 100 on every Linux ABI the toolchain targets (`USER_HZ`).
const CLK_TCK: f64 = 100.0;

/// `utime + stime` in seconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLK_TCK)
}

/// A `key:   <n> [kB]` line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds (user + system, every thread, exited ones included)
/// this process has used so far: the process CPU clock to the
/// nanosecond, or `/proc/self/stat` to the 10 ms tick without it.
pub fn process_cpu_seconds() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ts = sys::Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a writable timespec of this ABI's layout.
        if unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.sec as f64 + ts.nsec as f64 / 1e9;
        }
    }
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `(tid, voluntary + involuntary context switches)` of the calling
/// thread — pipeline threads report theirs as their last task finishes,
/// because they are gone by the time `run_topology` returns.
pub fn thread_ctx_switches() -> (u64, u64) {
    let Ok(status) = fs::read_to_string("/proc/thread-self/status") else {
        return (0, 0);
    };
    let get = |k| parse_status_field(&status, k).unwrap_or(0);
    (
        get("Pid"),
        get("voluntary_ctxt_switches") + get("nonvoluntary_ctxt_switches"),
    )
}

/// What the numbers were measured on; written into every result record.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub rustc: String,
}

/// `nproc` is the caller's: CPUs the process could use before it
/// pinned itself.
pub fn host(nproc: usize) -> Host {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Host {
        nproc,
        cpu_model,
        kernel,
        rustc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_survive_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 5 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tbench\nVmHWM:\t  204800 kB\nPid:\t77\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(204_800));
        assert_eq!(parse_status_field(status, "Pid"), Some(77));
        // A key that prefixes another must not match it.
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(12)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    /// Pins only this test's thread; the harness's other threads stay free.
    #[test]
    fn pinning_leaves_exactly_one_cpu_and_the_cpu_clock_advances() {
        let before = process_cpu_seconds();
        if let Some(cpu) = pin_to_one_cpu() {
            assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
            assert_eq!(
                pin_to_one_cpu(),
                Some(cpu),
                "the one CPU left is the highest"
            );
        }
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let used = process_cpu_seconds() - before;
        assert!(used > 0.0 && used < 60.0, "{used}");
        let stat = fs::read_to_string("/proc/self/stat").unwrap();
        let ticks = parse_cpu_seconds(&stat).unwrap();
        let clock = process_cpu_seconds();
        assert!(
            (clock - ticks).abs() < 0.25 + 0.05 * ticks,
            "clock {clock} and /proc {ticks} disagree"
        );
    }

    #[test]
    fn live_proc_reads_are_sane() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        let (tid, _) = thread_ctx_switches();
        assert!(tid > 0);
    }
}
