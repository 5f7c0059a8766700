//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload des-server|wire-server|fleet-server --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1` it
//! runs the same workload with every layer boundary timed and prints the
//! per-layer split. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. The process
//! exits non-zero when a correctness check fails. `perfbench/README.md`
//! describes the workloads and every metric.

mod des;
mod layers;
mod measure;
mod net;

use mlperf_loadgen::des::RunOutcome;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::time::Nanos;
use net::Topology;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_share", "share"),
    ("sim_ns_per_query", "ns"),
    ("sim_logged_ns_per_query", "ns"),
    ("sim_journaled_ns_per_query", "ns"),
];

/// Per-layer metrics of the traced run: name and unit. The first four are
/// whole-run figures too unsteady on a shared host to carry a bound. A
/// layer the workload never enters reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("sat_qps", "1/s"),
    ("peak_qps", "1/s"),
    ("sut.engine.ns_per_query", "ns"),
    ("sut.engine.calls_per_query", "count"),
    ("core.des.self_ns_per_query", "ns"),
    ("core.des.issue_self_ns_per_query", "ns"),
    ("core.des.complete_self_ns_per_query", "ns"),
    ("core.des.wakeup_self_ns_per_query", "ns"),
    ("core.des.score_self_ns", "ns"),
    ("core.des.residual_ns_per_query", "ns"),
    ("stats.schedule_self_ns_per_query", "ns"),
    ("trace.sink.ns_per_query", "ns"),
    ("trace.sink.events_per_query", "count"),
    ("core.journal.ns_per_query", "ns"),
    ("trace.journal.bytes_per_query", "bytes"),
    ("trace.journal.frames", "count"),
    ("bench.trace_overhead_ns_per_query", "ns"),
    ("core.realtime.dispatch_wait_us.p50", "us"),
    ("core.realtime.dispatch_wait_us.p99", "us"),
    ("core.realtime.in_flight.max", "count"),
    ("wire.client.call_us.p50", "us"),
    ("wire.client.call_us.p99", "us"),
    ("wire.uplink_us.p50", "us"),
    ("wire.downlink_us.p50", "us"),
    ("wire.server.queue_us.p50", "us"),
    ("wire.frames_per_query", "count"),
    ("wire.retries_failures", "count"),
    ("latency.residual_us.p50", "us"),
    ("bench.trace_overhead_us.p50", "us"),
    ("sut.shard.route_ns.p50", "ns"),
    ("sut.shard.max_share", "share"),
];

/// Samples in every run's query sample library.
pub const QSL_SIZE: usize = 1_024;
/// The Server latency bound: the paper's 15 ms for image classification.
pub const BOUND: Nanos = Nanos::from_millis(15);
/// Issued queries between run-journal checkpoints.
pub const CHECKPOINT_EVERY: u64 = 16;

/// A fresh query sample library.
pub fn qsl() -> MemoryQsl {
    MemoryQsl::new("perfbench-qsl", QSL_SIZE, QSL_SIZE)
}

/// Errored plus never-completed queries of a run.
pub fn failed_queries(out: &RunOutcome) -> u64 {
    out.records
        .iter()
        .filter(|r| r.error || r.completed_at.is_none())
        .count() as u64
}

/// The workloads, by the names `--workload` takes.
const WORKLOADS: [&str; 3] = ["des-server", "wire-server", "fleet-server"];

/// When a run's measuring time is up.
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Self {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds))
    }

    /// Whether the measuring time is over.
    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Queries issued by every measured run.
    pub attempted: u64,
    /// Issued queries that errored or never completed.
    pub failed: u64,
    /// Failed correctness checks.
    pub problems: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: every metric of `table`, 0 where unset.
    fn json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) read 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload des-server|wire-server|fleet-server \
                     --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload `{}`\n{USAGE}", out.workload));
    }
    Ok(out)
}

/// The machine the figures come from: processors, CPU model, kernel.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim())
        .to_string();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!("nproc={nproc} cpu=\"{model}\" kernel={}", kernel.trim())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!("# machine: {}", fingerprint());
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    // Journals go under the working directory, one directory per process.
    let work = PathBuf::from(".bench_work").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let deadline = Deadline::after(args.seconds);
    let mut report = match (args.workload.as_str(), args.trace) {
        ("des-server", false) => des::run(args.seed, des::QUERIES, &deadline, &work),
        ("des-server", true) => des::traced(args.seed, &deadline, &work),
        (name, trace) => {
            let topo = if name == "wire-server" {
                Topology::Wire
            } else {
                Topology::Fleet
            };
            if trace {
                net::traced(topo, args.seed, args.seconds, &work)
            } else {
                net::run(topo, args.seed, &deadline, &work)
            }
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    report.set("peak_rss_mb", measure::peak_rss_mb());
    let share = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.set("completed_share", share);
    for problem in &report.problems {
        eprintln!("correctness: {problem}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.json(table));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric_of_the_table() {
        let mut report = Report::default();
        report.set("sim_ns_per_query", 12.5);
        let line = report.json(&END_TO_END);
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(
            line.contains("\"sim_ns_per_query\": {\"value\": 12.5,"),
            "{line}"
        );
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }

    #[test]
    fn arguments_parse() {
        let argv: Vec<String> = "--workload wire-server --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse(&argv).expect("valid arguments");
        assert_eq!(
            (args.workload.as_str(), args.seed, args.trace),
            ("wire-server", 7, true)
        );
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&["--trace".into(), "2".into()]).is_err());
    }
}
