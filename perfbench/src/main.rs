//! The repository's benchmark: one process runs one workload and prints its
//! metrics as one JSON object on the last line of standard output.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mpc_groupby --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the same request loop with spans recorded around every call into a
//! layer, then the layer probes, and prints the per-layer metrics. The
//! metric names, units and the per-layer → end-to-end mapping are listed in
//! `perfbench/README.md`. Every result is checked against a plain-Rust
//! reference computed from the seeded inputs; any wrong, failed or rejected
//! request makes the process exit 1 after printing its result line.

mod gen;
mod oneshot;
mod probes;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

/// Metric name → (value, unit), printed in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Sample count behind each timing metric.
    pub samples: BTreeMap<&'static str, usize>,
    /// Which percentile `latency_ms_tail` is (see `stats::tail_percentile`).
    pub tail_percentile: f64,
}

impl Outcome {
    /// Counts one request; `ok` is false for an error, a rejection or a
    /// result that differs from the reference.
    pub fn count(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The end-to-end timings of a measured loop: request `latencies` in
    /// ms, the loop's `wall` time in s and the set-up times in s.
    pub fn timings(&mut self, latencies: &[f64], wall: f64, setups: &[f64]) {
        let m = &mut self.metrics;
        m.put("latency_ms_mean", stats::mean(latencies), "ms");
        self.tail_percentile = stats::tail_percentile(latencies.len());
        let tail = stats::percentile(latencies, self.tail_percentile);
        m.put("latency_ms_tail", tail, "ms");
        m.put("qps", latencies.len() as f64 / wall, "1/s");
        m.put("setup_s", stats::median(setups), "s");
        for name in ["latency_ms_mean", "latency_ms_tail", "qps"] {
            self.samples.insert(name, latencies.len());
        }
        self.samples.insert("setup_s", setups.len());
    }
}

/// Set-ups per run: at least `SETUP_MIN`, taking at least
/// `SETUP_MIN_SECONDS` in all. `setup_s` is their median.
const SETUP_MIN: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Whether another set-up is due, given the set-up times so far (seconds).
pub fn more_setups(times: &[f64]) -> bool {
    times.len() < SETUP_MIN || times.iter().sum::<f64>() < SETUP_MIN_SECONDS
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                oneshot::NAMES.join("|") + "|" + serve::NAME
            );
            std::process::exit(2);
        }
    };
    if !stats::tune_allocator() {
        eprintln!("perfbench: could not tune the allocator; running with its defaults");
    }
    // The whole run, every thread it spawns included, shares one CPU. The
    // parties of a query are threads that wake each other once per protocol
    // round. Across the vCPUs of a small VM each such wake-up waits on the
    // hypervisor, and that wait swings with the load other tenants put on
    // the host; on one CPU a wake-up is a context switch. Run to run, the
    // pinned figures hold steady where the unpinned ones do not.
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned_cpu = stats::pin_to_one_cpu();
    if pinned_cpu.is_none() {
        eprintln!("perfbench: could not pin to one CPU; running unpinned");
    }
    let host = stats::HostWindow::open();
    let result = if args.workload == serve::NAME {
        serve::run(&args)
    } else {
        oneshot::run(&args)
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let (steal, load) = host.close();
    if !args.trace {
        out.metrics.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        out.metrics.put(
            "ok_ratio",
            (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
            "ratio",
        );
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;

    for (name, (value, unit)) in &out.metrics.0 {
        let n = out
            .samples
            .get(name.as_str())
            .map_or(String::new(), |n| format!("  (n={n})"));
        eprintln!("{name:>32} {value:>16.4} {unit}{n}");
    }
    eprintln!(
        "{:>32} {failed_ratio:>16.4} ratio  ({} of {})",
        "failed_ratio", out.failed, out.attempted
    );
    eprintln!("{:>32} steal_share={steal:.4} loadavg_1m={load:.2}", "host");

    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let pinned = pinned_cpu.map_or("null".to_string(), |c| c.to_string());
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"failed_ratio\": {failed_ratio}, \
         \"tail_percentile\": {}, \"samples\": {{{}}}, \"host\": {{\"steal_share\": {steal}, \"loadavg_1m\": {load}, \
         \"cpus\": {host_cpus}, \"pinned_cpu\": {pinned}}}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        out.tail_percentile,
        samples.join(", ")
    );
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(k, (v, u))| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(k),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.failed > 0 {
        std::process::exit(1);
    }
}
