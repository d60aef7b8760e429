//! Order statistics, process memory and host-contention readings.

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 for none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// The tail percentile `n` samples support: the highest one, up to p90,
/// that has at least ten samples beyond it, and never below the median
/// (so with fewer than 20 samples the tail is the median). Higher
/// percentiles rest on a handful of requests that met a host hiccup and
/// differ by a quarter between runs of the same code.
pub fn tail_percentile(n: usize) -> f64 {
    let supported = (100 * n.saturating_sub(10)).checked_div(n).unwrap_or(0);
    supported.clamp(50, 90) as f64
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restricts this thread, and every thread it spawns afterwards, to the
/// lowest-numbered CPU it may run on. Returns that CPU, or `None` if the
/// affinity could not be read or set (the run then continues unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // `cpu_set_t` of glibc and musl: 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte size passed, and
    // pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Sets glibc's allocator up for a run on one CPU. Returns whether every
/// setting took.
///
/// - It keeps the memory the process frees instead of handing it back to
///   the kernel: no trimming of the heap tops, and blocks up to 32 MiB come
///   from the heap rather than from their own `mmap`. A query allocates and
///   frees tens of megabytes of messages. By default every query faults
///   that memory in again (about a million minor faults, and a third of the
///   CPU time spent in the kernel, per second of `mpc_pipeline_bulk`). On a
///   VM whose balloon reports free pages to the host, the cost of those
///   faults follows the host's memory load, and the pipeline's median moved
///   by a quarter to a third between runs of the same code.
/// - It keeps one arena for all threads. On one CPU more arenas buy no
///   parallelism. How many a run creates depends on how the party threads
///   of successive queries overlap, and each keeps its own peak, so
///   `peak_rss_mb` on `mpc_groupby` ranged from 7.1 to 9.1 MiB between runs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn tune_allocator() -> bool {
    // From glibc's <malloc.h>.
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    [
        (M_TRIM_THRESHOLD, i32::MAX),
        (M_MMAP_THRESHOLD, 32 << 20),
        (M_ARENA_MAX, 1),
    ]
    .into_iter()
    // SAFETY: `mallopt` only sets allocator parameters; it is called before
    // any thread is started.
    .all(|(param, value)| unsafe { mallopt(param, value) } == 1)
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn tune_allocator() -> bool {
    false
}

/// Aggregate CPU time counters from the first line of `/proc/stat`, in
/// clock ticks: (steal, total).
fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]; the
    // guest times are already included in user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Host contention over one run: the share of CPU time the hypervisor stole
/// from this VM, and the load average at the end. A throttled run shows here.
pub struct HostWindow {
    start: Option<(u64, u64)>,
}

impl HostWindow {
    pub fn open() -> HostWindow {
        HostWindow { start: cpu_ticks() }
    }

    /// `(steal_share, loadavg_1m)`; a share of -1 means `/proc/stat` was
    /// unreadable.
    pub fn close(&self) -> (f64, f64) {
        let steal = match (self.start, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => -1.0,
        };
        let load = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(-1.0);
        (steal, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(2048), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(12), 50.0);
        for n in 20..3000 {
            let p = tail_percentile(n);
            let rank = (p / 100.0 * n as f64).ceil() as usize;
            assert!(n - rank >= 10, "n={n} p={p}");
        }
    }
}
