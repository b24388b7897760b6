//! The machine fingerprint recorded with every result, the clocks and
//! peak memory the metrics are read from, and where run artefacts go.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a result was measured on.
pub struct Fingerprint {
    /// Hardware threads the process may use.
    pub nproc: usize,
    /// SIMD tier the simulator dispatched to.
    pub simd: &'static str,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu: String,
    /// Commit of the measured tree, `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Fingerprint {
    /// Probes the running machine and the source tree in the working
    /// directory.
    pub fn probe() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: qugeo_qsim::simd_feature_level(),
            cpu: cpu_model(),
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"simd\": \"{}\", \"cpu\": \"{}\", \"git_rev\": \"{}\"}}",
            self.nproc,
            self.simd,
            json_escape(&self.cpu),
            json_escape(&self.git_rev)
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Resolves `HEAD` by reading the git directory, so no `git` process is
/// started.
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(rev, _)| rev.to_string())
}

/// CPU time the process has used so far, in seconds: every thread,
/// live or exited (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it
/// leaves out time spent waiting for a CPU, whether to other tasks or,
/// with paravirtual steal accounting, to the hypervisor; `NaN` where the
/// clock cannot be read.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(2)
}

/// CPU time the calling thread has used so far, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`); `NaN` where the clock cannot be read.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(3)
}

/// Reads the POSIX CPU-time clock `clock`.
fn cpu_clock_s(clock: i32) -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` of the
        // platform's layout (two 64-bit fields) for the whole call.
        if unsafe { clock_gettime(clock, &mut ts) } == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    f64::NAN
}

/// Pins the calling thread, and every thread it starts from now on, to
/// the CPU it runs on, so that work and the reference loop timed beside
/// it share one core. Returns that CPU, or `None` where pinning is not
/// available (the run then goes on unpinned).
pub fn pin_to_current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // SAFETY: no arguments; returns a CPU number or -1.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        let mut mask = [0u64; 16];
        *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live `cpu_set_t` of `size_of_val(&mask)`
        // bytes; pid 0 names the calling thread.
        let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if pinned == 0 {
            return Some(cpu);
        }
    }
    None
}

/// Wall and process CPU time since it was started.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds of every thread of the process since the start.
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu_s
    }
}

/// Wall and CPU seconds of each repetition of a unit of work.
#[derive(Debug, Default)]
pub struct Times {
    /// Wall seconds per repetition.
    pub wall: Vec<f64>,
    /// Process CPU seconds per repetition.
    pub cpu: Vec<f64>,
}

impl Times {
    /// Records the repetition `watch` has timed since its start.
    pub fn push(&mut self, watch: &Stopwatch) {
        self.wall.push(watch.wall_s());
        self.cpu.push(watch.cpu_s());
    }

    /// Repetitions recorded.
    pub fn len(&self) -> usize {
        self.cpu.len()
    }

    /// Prints every repetition on standard error.
    pub fn log(&self, what: &str) {
        let ms = |v: &[f64]| {
            v.iter()
                .map(|t| (t * 1e3).round() as u64)
                .collect::<Vec<_>>()
        };
        eprintln!(
            "{what} ms, wall: {:?}; cpu: {:?}",
            ms(&self.wall),
            ms(&self.cpu)
        );
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Directory for trace files: beside the benchmark executable, inside
/// the build directory.
pub fn out_dir() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.join("perfbench-out")))
        .unwrap_or_else(|| PathBuf::from("perfbench-out"));
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Escapes a string for a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
