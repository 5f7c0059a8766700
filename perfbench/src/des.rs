//! The `des-server` workload: a simulated Server run against the
//! `trace run --scenario server` device, priced per query three ways.
//!
//! Every round runs the same seed through the discrete-event loop as a
//! *plain* pass (no instruments), a *logged* pass (ring-buffer detail log
//! and metrics registry, as `trace run` wires them) and a *journaled* pass
//! (`run_journaled`, a checkpoint every 16 issued queries, `fsync`
//! batching off). The three must agree record for record.

use crate::layers::{TimedSim, TimedSink};
use crate::measure::{calibration_ns, median, p50_p99_us, seeds_for, CALIBRATION_REF_NS};
use crate::{failed_queries, qsl, Deadline, Report, BOUND, CHECKPOINT_EVERY, QSL_SIZE};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::{run_instrumented, run_journaled, RunOutcome};
use mlperf_loadgen::find_peak::{find_peak_server_qps, PeakSearchOptions};
use mlperf_loadgen::journal::{load_run_journal, JournalConfig};
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::sut::SimSut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::{Instruments, JournaledRun};
use mlperf_models::{TaskId, Workload};
use mlperf_stats::dist::PoissonProcess;
use mlperf_stats::Rng64;
use mlperf_sut::device::{Architecture, DeviceSpec, ThermalModel};
use mlperf_sut::engine::{BatchPolicy, DeviceSut};
use mlperf_trace::{profile, MetricsRegistry, RingBufferSink, SpanReport, TraceSink};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Queries per pass.
pub const QUERIES: u64 = 100_000;
const SERVER_QPS: f64 = 1_000.0;
/// Queries per run of the capacity probes (saturation and peak search),
/// as a fraction of the queries per pass.
const CAPACITY_SHARE: u64 = 5;
/// Offered rate of the saturation run: far above the device's capacity,
/// so every query is due long before the device can take it.
const SATURATION_QPS: f64 = 1_000_000.0;

/// The `trace run --scenario server` settings at `queries` queries.
pub fn settings(seed: u64, queries: u64) -> TestSettings {
    TestSettings::server(SERVER_QPS, BOUND)
        .with_seeds(seeds_for(seed, 0))
        .with_min_query_count(queries)
        .with_min_duration(Nanos::from_millis(1))
}

/// The `trace run` GPU preset under dynamic batching.
pub fn device() -> DeviceSut {
    let spec = DeviceSpec::new(
        "trace-demo-gpu",
        Architecture::Gpu,
        2_000.0,
        2.0,
        16,
        2,
        Nanos::from_micros(50),
    )
    .with_thermal(ThermalModel {
        boost: 1.3,
        decay_secs: 0.5,
    });
    DeviceSut::new(
        spec,
        Workload::new(TaskId::ImageClassificationLight),
        BatchPolicy::DynamicBatch {
            timeout: Nanos::from_millis(2),
            max_batch: 16,
        },
    )
}

fn err(pass: &str) -> impl Fn(mlperf_loadgen::LoadGenError) -> String + '_ {
    move |e| format!("{pass} pass failed: {e}")
}

/// Runs the plain pass and returns it with its wall time.
pub fn plain_pass<S: SimSut>(
    s: &TestSettings,
    q: &mut MemoryQsl,
    sut: &mut S,
) -> Result<(RunOutcome, u64), String> {
    let start = Instant::now();
    let out = run_instrumented(s, q, sut, &Instruments::none()).map_err(err("plain"))?;
    Ok((out, start.elapsed().as_nanos() as u64))
}

/// Runs the logged pass: the loop writes into `sink` and `registry`; the
/// device was built writing into the same pair.
fn run_logged<S: SimSut>(
    s: &TestSettings,
    q: &mut MemoryQsl,
    sut: &mut S,
    sink: &dyn TraceSink,
    registry: &MetricsRegistry,
) -> Result<(RunOutcome, u64), String> {
    let start = Instant::now();
    let instruments = Instruments::traced(sink).with_metrics(registry);
    let out = run_instrumented(s, q, sut, &instruments).map_err(err("logged"))?;
    Ok((out, start.elapsed().as_nanos() as u64))
}

/// Runs the journaled pass into `path`.
pub fn journaled_pass<S: SimSut>(
    s: &TestSettings,
    q: &mut MemoryQsl,
    sut: &mut S,
    path: &Path,
) -> Result<(RunOutcome, u64), String> {
    let cfg = JournalConfig::new(path)
        .with_checkpoint_every(CHECKPOINT_EVERY)
        .with_fsync_every(u32::MAX);
    let start = Instant::now();
    let run = run_journaled(s, q, sut, &Instruments::none(), &cfg).map_err(err("journaled"))?;
    let ns = start.elapsed().as_nanos() as u64;
    match run {
        JournaledRun::Finished(out) => Ok((*out, ns)),
        JournaledRun::Halted { checkpoint } => Err(format!(
            "journaled pass halted at checkpoint {checkpoint} with no halt armed"
        )),
    }
}

/// Problems with a pass relative to the plain pass of the same seed.
fn compare(pass: &str, plain: &RunOutcome, other: &RunOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if other.records != plain.records {
        problems.push(format!("{pass} pass records differ from the plain pass"));
    }
    if other.result.validity != plain.result.validity {
        problems.push(format!("{pass} pass verdict differs from the plain pass"));
    }
    if !other.result.is_valid() {
        problems.push(format!(
            "{pass} pass is INVALID: {:?}",
            other.result.validity
        ));
    }
    problems
}

/// Problems with the journal a journaled pass of `plain`'s run left.
fn check_journal(path: &Path, plain: &RunOutcome) -> Vec<String> {
    let loaded = match load_run_journal(path) {
        Ok(loaded) => loaded,
        Err(e) => return vec![format!("journal does not reload: {e}")],
    };
    let issued = plain.records.len() as u64;
    let mut problems = Vec::new();
    if loaded.checkpoints != issued / CHECKPOINT_EVERY {
        problems.push(format!(
            "journal holds {} checkpoints, expected {}",
            loaded.checkpoints,
            issued / CHECKPOINT_EVERY
        ));
    }
    if loaded.torn.is_some() {
        problems.push("journal ends in a torn frame".into());
    }
    match loaded.last {
        Some(cp) => {
            let same = cp.recorder.records.len() == plain.records.len()
                && cp
                    .recorder
                    .records
                    .iter()
                    .zip(&plain.records)
                    .all(|(a, b)| a.id == b.id && a.scheduled_at == b.scheduled_at);
            if cp.issued != issued || !same {
                problems.push("journal's last checkpoint does not match the run".into());
            }
        }
        None => problems.push("journal has no checkpoint".into()),
    }
    problems
}

/// Simulated capacity of the device: completions per simulated second when
/// every query is due at once, and the LoadGen's peak VALID server rate.
fn simulated_capacity(seed: u64, queries: u64) -> Result<(f64, f64), String> {
    let burst = settings(seed, queries).with_server_target_qps(SATURATION_QPS);
    let (out, _) = plain_pass(&burst, &mut qsl(), &mut device())?;
    let sat = out.result.query_count as f64 / out.result.duration.as_secs_f64();
    let search = settings(seed, queries);
    let peak = find_peak_server_qps(
        &search,
        &mut qsl(),
        &mut device(),
        PeakSearchOptions::default(),
    )
    .map_err(err("peak search"))?
    .peak()
    .ok_or("simulated peak search found no VALID rate")?;
    Ok((sat, peak))
}

/// One pass and its wall time, raw and at the reference speed.
struct Timed {
    out: RunOutcome,
    ns: f64,
    ref_ns: f64,
}

/// Runs `pass` between two calibrations.
fn calibrated(pass: impl FnOnce() -> Result<(RunOutcome, u64), String>) -> Result<Timed, String> {
    let before = calibration_ns();
    let (out, ns) = pass()?;
    let after = calibration_ns();
    let ns = ns as f64;
    Ok(Timed {
        out,
        ns,
        ref_ns: ns * CALIBRATION_REF_NS * 2.0 / (before + after),
    })
}

/// One round: the plain, logged and journaled passes of one seed, after
/// checking that they agree. Returns the set-up time (QSL and device
/// built) too.
fn round(
    s: &TestSettings,
    journal: &Path,
    report: &mut Report,
) -> Result<(f64, [Timed; 3]), String> {
    let start = Instant::now();
    let mut q = qsl();
    let mut dev = device();
    let setup_s = start.elapsed().as_secs_f64();
    let plain = calibrated(|| plain_pass(s, &mut q, &mut dev))?;

    let sink = Arc::new(RingBufferSink::unbounded());
    let registry = Arc::new(MetricsRegistry::new());
    let mut dev = device()
        .with_trace(sink.clone())
        .with_metrics(Arc::clone(&registry));
    let logged = calibrated(|| run_logged(s, &mut qsl(), &mut dev, &*sink, &registry))?;
    drop((dev, sink));

    let journaled = calibrated(|| journaled_pass(s, &mut qsl(), &mut device(), journal))?;
    report
        .problems
        .extend(compare("logged", &plain.out, &logged.out));
    report
        .problems
        .extend(compare("journaled", &plain.out, &journaled.out));
    Ok((setup_s, [plain, logged, journaled]))
}

/// The end-to-end run: rounds of plain, logged and journaled passes of
/// `queries` queries until the deadline, each timed at the reference speed.
pub fn run(seed: u64, queries: u64, deadline: &Deadline, work: &Path) -> Report {
    let mut report = Report::default();
    let s = settings(seed, queries);
    let journal = work.join("des-server.mlpj");
    let mut setup = Vec::new();
    let (mut raw, mut at_ref): ([Vec<f64>; 3], [Vec<f64>; 3]) = Default::default();
    let mut reference: Option<RunOutcome> = None;
    let mut rounds = 0;
    while rounds < 3 || !deadline.passed() {
        let passes = match round(&s, &journal, &mut report) {
            Ok((setup_s, passes)) => {
                setup.push(setup_s);
                passes
            }
            Err(e) => {
                report.problems.push(e);
                break;
            }
        };
        if reference.is_none() {
            report
                .problems
                .extend(check_journal(&journal, &passes[0].out));
        }
        let _ = std::fs::remove_file(&journal);
        for (i, pass) in passes.iter().enumerate() {
            raw[i].push(pass.ns / queries as f64);
            at_ref[i].push(pass.ref_ns / queries as f64);
            report.attempted += pass.out.records.len() as u64;
            report.failed += failed_queries(&pass.out);
        }
        let [Timed { out: plain, .. }, ..] = passes;
        match &reference {
            None if !plain.result.is_valid() => {
                report.problems.push(format!(
                    "plain pass is INVALID: {:?}",
                    plain.result.validity
                ));
                break;
            }
            None => reference = Some(plain),
            Some(first) if first.records != plain.records => report
                .problems
                .push("a repeated plain pass gave different records".into()),
            Some(_) => {}
        }
        rounds += 1;
    }
    println!(
        "# des-server: {rounds} rounds of {queries} queries; raw wall ns/query medians \
         plain {:.1} logged {:.1} journaled {:.1}",
        median(&raw[0]),
        median(&raw[1]),
        median(&raw[2])
    );
    report.set("setup_s", median(&setup));
    report.set("sim_ns_per_query", median(&at_ref[0]));
    report.set("sim_logged_ns_per_query", median(&at_ref[1]));
    report.set("sim_journaled_ns_per_query", median(&at_ref[2]));
    report
}

/// Sums of the spans named `name` anywhere in the tree: (inclusive,
/// exclusive) nanoseconds.
fn span(report: &SpanReport, name: &str) -> (f64, f64) {
    report
        .rows()
        .iter()
        .filter(|r| r.name() == name)
        .fold((0.0, 0.0), |(i, e), r| {
            (i + r.inclusive_ns as f64, e + r.exclusive_ns as f64)
        })
}

/// Nanoseconds per query the stats layer spends drawing the server
/// schedule: the Poisson arrivals and the sample indices of `queries`
/// queries, timed through its public functions.
pub fn schedule_ns_per_query(s: &TestSettings, queries: u64) -> f64 {
    let start = Instant::now();
    let mut arrivals = PoissonProcess::new(s.server_target_qps, Rng64::new(s.seeds.schedule_seed))
        .expect("server settings carry a positive rate");
    let mut indices = Rng64::new(s.seeds.qsl_seed);
    let mut sink = 0.0;
    for _ in 0..queries {
        sink += arrivals.next().unwrap_or(0.0);
        sink += indices.sample_with_replacement(QSL_SIZE, s.samples_per_query)[0] as f64;
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / queries as f64
}

/// One traced round: every pass of `s` with its layer boundaries timed,
/// as (per-layer metric, value) pairs.
fn traced_round(
    s: &TestSettings,
    journal: &Path,
    report: &mut Report,
) -> Result<Vec<(&'static str, f64)>, String> {
    let n = s.min_query_count as f64;
    // Decorated plain pass: engine time and the loop's own time.
    let mut dev = TimedSim::new(device());
    let (plain, wall) = plain_pass(s, &mut qsl(), &mut dev)?;
    let (engine, calls) = (dev.total_ns() as f64, dev.calls as f64);

    // The same pass with the span profiler on. Device calls happen inside
    // the issue and wakeup spans; the decorator says how long they took.
    let mut dev = TimedSim::new(device());
    profile::reset();
    profile::set_enabled(true);
    let profiled = plain_pass(s, &mut qsl(), &mut dev);
    profile::set_enabled(false);
    let (profiled, profiled_wall) = profiled?;
    let spans = profile::report();
    let issue_self = span(&spans, "loadgen/issue").0 - dev.query_ns as f64;
    let wakeup_self = span(&spans, "loadgen/wakeup").0 - dev.wakeup_ns as f64;
    let complete = span(&spans, "loadgen/complete").0;
    let score = span(&spans, "loadgen/score").0;
    let parts = dev.total_ns() as f64
        + issue_self
        + wakeup_self
        + complete
        + score
        + span(&spans, "loadgen/event_loop").1
        + span(&spans, "loadgen/load_samples").0
        + span(&spans, "loadgen/run").1;

    // Untraced plain pass, for the tracing overhead.
    let (_, untraced) = plain_pass(s, &mut qsl(), &mut device())?;

    // Decorated logged pass.
    let sink = Arc::new(TimedSink::new(Arc::new(RingBufferSink::unbounded())));
    let registry = Arc::new(MetricsRegistry::new());
    let mut dev = TimedSim::new(
        device()
            .with_trace(sink.clone())
            .with_metrics(Arc::clone(&registry)),
    );
    let (logged, _) = run_logged(s, &mut qsl(), &mut dev, &*sink, &registry)?;
    let (sink_ns, events) = (
        (sink.loop_ns() + sink.engine_ns()) as f64,
        sink.events() as f64,
    );
    drop((dev, sink));

    // Decorated journaled pass.
    let mut dev = TimedSim::new(device());
    let (journaled, journaled_wall) = journaled_pass(s, &mut qsl(), &mut dev, journal)?;
    let bytes = std::fs::metadata(journal).map_or(0, |m| m.len()) as f64;
    let checkpoints = load_run_journal(journal)
        .map_err(|e| format!("journal does not reload: {e}"))?
        .checkpoints;
    let _ = std::fs::remove_file(journal);

    for (name, out) in [
        ("profiled", &profiled),
        ("logged", &logged),
        ("journaled", &journaled),
    ] {
        report.problems.extend(compare(name, &plain, out));
    }
    report.attempted += 5 * plain.records.len() as u64;
    report.failed += 5 * failed_queries(&plain);
    Ok(vec![
        ("sut.engine.ns_per_query", engine / n),
        ("sut.engine.calls_per_query", calls / n),
        ("core.des.self_ns_per_query", (wall as f64 - engine) / n),
        ("core.des.issue_self_ns_per_query", issue_self / n),
        ("core.des.complete_self_ns_per_query", complete / n),
        ("core.des.wakeup_self_ns_per_query", wakeup_self / n),
        ("core.des.score_self_ns", score),
        (
            "core.des.residual_ns_per_query",
            (profiled_wall as f64 - parts) / n,
        ),
        (
            "bench.trace_overhead_ns_per_query",
            (profiled_wall as f64 - untraced as f64) / n,
        ),
        ("trace.sink.ns_per_query", sink_ns / n),
        ("trace.sink.events_per_query", events / n),
        (
            "core.journal.ns_per_query",
            (journaled_wall as f64 - wall as f64) / n,
        ),
        ("trace.journal.bytes_per_query", bytes / n),
        // The meta frame plus one frame per checkpoint.
        ("trace.journal.frames", checkpoints as f64 + 1.0),
        (
            "stats.schedule_self_ns_per_query",
            schedule_ns_per_query(s, s.min_query_count),
        ),
    ])
}

/// The traced run: rounds of traced passes until the deadline; each
/// per-layer figure is the median over the rounds.
pub fn traced(seed: u64, deadline: &Deadline, work: &Path) -> Report {
    let mut report = Report::default();
    let s = settings(seed, QUERIES);
    let journal = work.join("des-server-traced.mlpj");
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rounds = 0;
    while rounds < 3 || !deadline.passed() {
        match traced_round(&s, &journal, &mut report) {
            Ok(row) => row
                .into_iter()
                .for_each(|(name, v)| values.entry(name).or_default().push(v)),
            Err(e) => {
                report.problems.push(e);
                break;
            }
        }
        rounds += 1;
    }
    for (name, v) in &values {
        report.set(name, median(v));
    }
    // The simulated device's own figures, in simulated time.
    let device_figures = plain_pass(&s, &mut qsl(), &mut device()).and_then(|(plain, _)| {
        let (sat, peak) = simulated_capacity(seed, QUERIES / CAPACITY_SHARE)?;
        Ok((p50_p99_us(&plain.result), sat, peak))
    });
    match device_figures {
        Ok(((p50, p99), sat, peak)) => {
            report.set("p50_us", p50);
            report.set("p99_us", p99);
            report.set("sat_qps", sat);
            report.set("peak_qps", peak);
        }
        Err(e) => report.problems.push(e),
    }
    println!("# des-server traced: {rounds} rounds of {QUERIES} queries");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Deadline;

    #[test]
    fn decorated_passes_match_undecorated_ones() {
        let s = settings(9, 3_000);
        let (plain, _) = plain_pass(&s, &mut qsl(), &mut device()).expect("plain pass");
        let mut timed = TimedSim::new(device());
        let (decorated, _) = plain_pass(&s, &mut qsl(), &mut timed).expect("decorated pass");
        assert_eq!(decorated.records, plain.records);
        assert_eq!(decorated.result.validity, plain.result.validity);
        assert!(timed.calls >= 3_000 && timed.total_ns() > 0);

        let sink = Arc::new(TimedSink::new(Arc::new(RingBufferSink::unbounded())));
        let registry = Arc::new(MetricsRegistry::new());
        let mut dev = TimedSim::new(
            device()
                .with_trace(sink.clone())
                .with_metrics(Arc::clone(&registry)),
        );
        let (logged, _) =
            run_logged(&s, &mut qsl(), &mut dev, &*sink, &registry).expect("logged pass");
        assert_eq!(logged.records, plain.records);
        assert!(sink.events() >= 2 * 3_000 && sink.engine_ns() > 0);
    }

    #[test]
    fn a_seed_changes_the_schedule_but_not_the_metric_names() {
        let work = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&work).expect("test dir");
        let names = |seed| {
            let report = run(seed, 2_000, &Deadline::after(0.0), &work);
            assert!(report.problems.is_empty(), "{:?}", report.problems);
            let mut names: Vec<&str> = report.metrics.keys().copied().collect();
            names.sort_unstable();
            names
        };
        assert_eq!(names(1), names(2));
        let schedule = |seed| {
            let (out, _) =
                plain_pass(&settings(seed, 200), &mut qsl(), &mut device()).expect("runs");
            out.records
                .iter()
                .map(|r| r.scheduled_at)
                .collect::<Vec<_>>()
        };
        assert_ne!(schedule(1), schedule(2));
        assert_eq!(schedule(1), schedule(1));
        let _ = std::fs::remove_dir_all(&work);
    }
}
