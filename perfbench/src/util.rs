//! Seeded randomness, order statistics and process/disk measurements.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

/// SplitMix64: a tiny seeded generator, so a seed fully determines every
/// order and edit the benchmark makes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Linearly interpolated quantile of unsorted samples (`q` in `0..=1`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// FNV-1a, for cheap equality of large reply texts.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss`.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

/// A CPU set of up to 1024 CPUs, as `sched_{get,set}affinity` take it.
type CpuMask = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SC_CLK_TCK: i32 = 2;

/// The CPUs this process could run on before [`pin_to_one_cpu`].
static ALL_CPUS: std::sync::OnceLock<CpuMask> = std::sync::OnceLock::new();
/// The CPU [`pin_to_one_cpu`] chose.
static PINNED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();

fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live `CpuMask` of the size passed; pid 0 is the
    // calling thread, and the call only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask) == 0 }
}

/// Pins the calling thread, and so every thread and child process it
/// starts later, to the highest-numbered CPU it may run on; returns that
/// CPU. With the client, the daemon and every batch pass on one CPU, a
/// request never waits for a sleeping second (virtual) CPU to wake up,
/// which on a shared host costs milliseconds that vary with the host's
/// load rather than with the program.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable `CpuMask` of the size passed; pid
    // 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
    if rc < 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    ALL_CPUS.get_or_init(|| mask);
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    if !set_affinity(&one) {
        return None;
    }
    PINNED.get_or_init(|| cpu);
    Some(cpu)
}

pub fn pinned_cpu() -> Option<usize> {
    PINNED.get().copied()
}

/// The number of CPUs this process may use, counted before pinning.
pub fn cpus() -> usize {
    match ALL_CPUS.get() {
        Some(mask) => mask.iter().map(|w| w.count_ones() as usize).sum(),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Lets the calling thread run on every CPU again (for work outside the
/// measured window, such as computing references).
pub fn unpin_thread() {
    if let Some(all) = ALL_CPUS.get() {
        set_affinity(all);
    }
}

/// What a finished child process did.
pub struct Finished {
    /// Exit code, or `None` if a signal ended it.
    pub code: Option<i32>,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    /// User+system CPU of this child alone.
    pub cpu: Duration,
    /// Peak resident set of this child alone, in KiB.
    pub max_rss_kb: u64,
}

/// Runs `cmd` to completion with stdout and stderr captured, and reaps it
/// with `wait4` so its CPU time and peak RSS are its own, not those of
/// every child reaped so far.
pub fn run_measured(cmd: &mut Command) -> std::io::Result<Finished> {
    let mut child = cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn()?;
    let mut err = child.stderr.take().expect("stderr is piped");
    let err_reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let _ = err.read_to_end(&mut buf);
        buf
    });
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let mut status = 0;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `u` are live and writable with the platform
    // layouts declared above; the pid is our own unreaped child.
    let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut u) };
    let stderr = err_reader.join().unwrap_or_default();
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    read?;
    let t = |tv: &Timeval| Duration::from_micros((tv.sec * 1_000_000 + tv.usec) as u64);
    Ok(Finished {
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        stdout,
        stderr,
        cpu: t(&u.utime) + t(&u.stime),
        max_rss_kb: u.maxrss as u64,
    })
}

/// User+system CPU a live process has used so far (from `/proc`).
pub fn proc_cpu(pid: u32) -> Duration {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let ticks = f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0);
    // SAFETY: sysconf takes a plain integer and touches no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    Duration::from_micros(ticks * 1_000_000 / hz)
}

/// Peak resident set of a live process in KiB (`VmHWM`).
pub fn proc_peak_rss_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}
