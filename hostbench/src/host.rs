//! Host measurements: process CPU time, peak RSS, steal time and the
//! host record printed beside every run's metrics.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of the process, in nanoseconds.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Linux `USER_HZ`: the unit of the tick counts in `/proc/stat`.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds the process has used so far, across all of
/// its threads (the serve workload's client and server share it).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) and the
    // clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (VmHWM) of the process in MiB.
pub fn peak_rss_mib() -> f64 {
    appstore_core::spill::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Summed steal ticks of all CPUs from `/proc/stat` (0 when unreadable).
fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .filter(|line| line.starts_with("cpu "))
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|field| field.parse().ok())
        .unwrap_or(0)
}

/// Host steal time over a phase: time the hypervisor ran something else
/// while this VM's CPUs wanted to run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Steal {
    start_ticks: u64,
    /// Steal seconds summed over all CPUs.
    pub seconds: f64,
    /// Steal seconds per CPU-second of the phase.
    pub share: f64,
}

impl Steal {
    /// Starts counting.
    pub fn start() -> Steal {
        Steal {
            start_ticks: steal_ticks(),
            ..Steal::default()
        }
    }

    /// Stops counting after a phase of `wall_s` seconds.
    pub fn finish(self, wall_s: f64) -> Steal {
        let seconds = steal_ticks().saturating_sub(self.start_ticks) as f64 / TICKS_PER_SECOND;
        Steal {
            seconds,
            share: crate::ratio(seconds, wall_s * cpus() as f64),
            ..self
        }
    }
}

/// CPUs available to the process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(
            || "unknown".to_string(),
            |(_, model)| model.trim().to_string(),
        )
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |sha| sha.trim().to_string())
}

/// The host record of one run: not gated, printed so a drifted run can
/// be explained from its own output.
pub fn record(steal: &Steal) -> String {
    format!(
        "host: steal_s={:.2} steal_share={:.4} nproc={} cpu=\"{}\" git={}",
        steal.seconds,
        steal.share,
        cpus(),
        cpu_model(),
        git_sha()
    )
}
