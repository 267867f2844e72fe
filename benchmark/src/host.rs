//! What the benchmark reads about the host: process CPU time and memory from
//! `/proc`, the core count, and the fingerprint recorded beside every result.

use std::path::PathBuf;
use std::process::Command;

use match_core::mpisim::SchedBackend;

/// The process CPU clock through `clock_gettime(2)`: scheduler-exact nanoseconds
/// summed over every thread, living or joined. `/proc/self/stat` offers the same sum
/// only as sampled 10 ms ticks, a coarse instrument for the thousands of rank threads
/// the default backend spawns, most of which live for less than one tick.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod cpu_clock {
    /// `struct timespec` of the 64-bit Linux ABIs: two 64-bit signed fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    /// `CLOCK_PROCESS_CPUTIME_ID` in `<linux/time.h>`.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    pub fn process_cpu_ms() -> Option<f64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `struct timespec` through `tp` and keeps
        // no reference to it; `ts` is a live, exclusively borrowed value whose
        // `repr(C)` layout is that struct on every 64-bit Linux target (the `cfg`
        // above). libc, which defines the symbol, is linked by `std` itself.
        let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (status == 0).then(|| ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6)
    }
}

/// The tick-sampled fallback for other targets: `utime + stime` of
/// `/proc/self/stat`, in `USER_HZ` = 100 ticks per second.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod cpu_clock {
    pub fn process_cpu_ms() -> Option<f64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // The command name (field 2) may contain spaces; fields are counted after it.
        let rest = &stat[stat.rfind(')')? + 1..];
        let mut fields = rest.split_whitespace();
        let utime: f64 = fields.nth(11)?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some((utime + stime) * 10.0)
    }
}

/// The number of cores the benchmark may use; also the cap on generator threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// User + system CPU milliseconds this process (all threads, living and joined)
/// has consumed. `None` where the host offers no such clock.
pub fn process_cpu_ms() -> Option<f64> {
    cpu_clock::process_cpu_ms()
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib / 1024.0)
}

/// Current resident set size of this process (`VmRSS`), KiB.
pub fn rss_kib() -> Option<f64> {
    status_kib("VmRSS:")
}

/// The benchmark package's directory: where `out/` and private temp dirs live.
/// `cargo run` exports it; a binary started by hand falls back to where it was
/// built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The host a result was measured on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the package's repository, when it is one.
    pub git_commit: String,
    /// The library-default scheduler backend's name.
    pub default_backend: String,
}

impl Fingerprint {
    /// Reads the fingerprint; anything unreadable is recorded as `"unknown"`.
    pub fn read() -> Fingerprint {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let pkg = package_dir();
        let git_commit = command_line("git", &["-C", &pkg.to_string_lossy(), "rev-parse", "HEAD"])
            .unwrap_or_else(unknown);
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            git_commit,
            default_backend: SchedBackend::default().name().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_linux() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let before = process_cpu_ms().expect("cpu time");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(
            process_cpu_ms().expect("cpu time") > before,
            "the clock advances with work"
        );
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        assert!(rss_kib().expect("VmRSS") > 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn fingerprint_names_a_parsable_default_backend() {
        let fp = Fingerprint::read();
        assert!(fp.default_backend.parse::<SchedBackend>().is_ok());
        assert!(fp.nproc >= 1);
    }
}
