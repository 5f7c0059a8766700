//! Network LoadGen harness: drive a remote SUT daemon, export one, or do
//! both in-process over a loopback socket.
//!
//! ```text
//! netbench --serve <addr>               export the benchmark device as a daemon
//! netbench --connect <addr> [opts]      drive a remote daemon (offline + server runs)
//! netbench --loopback [opts]            single-process: daemon + client on 127.0.0.1
//!
//! opts: [--shards <n>] [--seed <n>] [--out <path>] [--metrics <path>]
//!       [--detail <path>] [--chrome <path>] [--flight-dir <dir>]
//!       [--analyze] [--stats] [--watch] [--check]
//! ```
//!
//! `--loopback --shards N` starts a *fleet*: N heterogeneous loopback
//! daemons (distinct per-sample service times, shard labels `shard-0`…)
//! behind one `ShardedSut` router balancing by preset throughput weight.
//! During the server-scenario run a seeded shard (`seed % N`) is killed
//! mid-stream; the router's failover re-routes its in-flight queries so
//! the run completes VALID, and the merged detail log gains `ShardEvent`
//! rows (`route`/`failover`/`down`) proving it. `--watch`/`--stats`
//! render the whole fleet in one table keyed by the daemons' shard
//! labels. `--check` drives two fresh fleets and additionally asserts
//! the VALID rescue, the exactly-once completeness audit on the merged
//! sharded log, the byte-identical logical log, and the presence of the
//! kill's `down`+`failover` rows.
//!
//! Every run writes a *logical detail log*: the deterministic slice of the
//! per-query records (id, scheduled time, sample count, error flag) that is
//! byte-reproducible under a fixed seed — wall-clock latencies explicitly
//! excluded. On a v3 link each run also produces a *merged* detail log:
//! client issue/complete spans, server queue/compute spans (shipped back at
//! drain and re-stamped onto the client clock by the NTP-style offset
//! estimator), and wire events, all on one time axis. `--detail` /
//! `--chrome` export the server-scenario run's merged log as JSONL /
//! Chrome trace JSON; `--metrics` writes the per-run wire metrics
//! snapshots; `--stats` asks the daemon for a live [`DaemonStats`]
//! snapshot; `--watch` polls that snapshot into a live console line while
//! the runs execute. A run that ends INVALID automatically leaves a
//! flight-recorder dump of its freshest events under `--flight-dir`;
//! `--analyze` additionally runs tail-latency forensics over the dumped
//! tail and writes a `<dump>.analysis.md` root-cause report beside it.
//!
//! `--check` is the CI smoke mode: it repeats the run pair on fresh
//! connections and asserts every run is VALID, the two logical logs render
//! to identical bytes, the merged log passes the TEST06 completeness audit
//! with no accuracy events and at least one end-to-end trace, the stats
//! snapshot parses (with `--stats`).

use mlperf_audit::tests::completeness_report;
use mlperf_audit::AuditOutcome;
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
use mlperf_loadgen::realtime::run_realtime_traced_at;
use mlperf_loadgen::sut::FixedLatencySut;
use mlperf_loadgen::time::Nanos;
use mlperf_stats::rng::SeedTriple;
use mlperf_sut::{BalancePolicy, ShardEndpoint, ShardedSut};
use mlperf_trace::chrome::chrome_trace_json;
use mlperf_trace::event::TraceRecord;
use mlperf_trace::flight::render_flight_dump;
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_trace::{JsonValue, RingBufferSink, ToJson, TraceEvent};
use mlperf_wire::{
    fetch_stats, serve_on, RemoteSut, RemoteSutConfig, ResumePolicy, ServeConfig, ServerHandle,
    SimHost,
};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: netbench (--serve <addr> | --connect <addr> | --loopback) \
[--shards <n>] [--seed <n>] [--out <path>] [--metrics <path>] [--detail <path>] \
[--chrome <path>] [--flight-dir <dir>] [--analyze] [--stats] [--watch] [--check]";

/// Simulated per-sample service time of the benchmark device. The daemon
/// replays this on the wall clock, so the whole loopback pair stays fast
/// enough for a CI smoke stage.
const DEVICE_PER_SAMPLE: Nanos = Nanos::from_micros(40);

/// Events kept in an automatic flight-recorder dump of an INVALID run.
const FLIGHT_TAIL: usize = 256;

fn benchmark_device() -> SimHost<FixedLatencySut> {
    SimHost::new(FixedLatencySut::new("netbench-dev", DEVICE_PER_SAMPLE))
}

/// Scaled-down run pair. Both scenarios terminate on schedule-derived
/// conditions (an offline run is one batch; the server issue loop stops on
/// seeded arrival times), so the issued query stream — ids, scheduled
/// times, sample counts — is deterministic under a fixed seed.
fn run_pair(seed: u64) -> [(&'static str, TestSettings); 2] {
    let seeds = SeedTriple::from_master(seed);
    [
        (
            "offline",
            TestSettings::offline()
                .with_offline_min_sample_count(1_024)
                .with_min_duration(Nanos::from_millis(1))
                .with_seeds(seeds),
        ),
        (
            "server",
            TestSettings::server(200.0, Nanos::from_millis(50))
                .with_min_query_count(48)
                .with_min_duration(Nanos::from_millis(100))
                .with_seeds(seeds),
        ),
    ]
}

struct RunSummary {
    label: &'static str,
    valid: bool,
    issues: Vec<String>,
    query_count: u64,
    sample_count: u64,
    wire_events: usize,
    /// Trace ids whose client-issue, server-compute, and client-complete
    /// spans all made it into the merged log.
    end_to_end_traces: usize,
    /// `AccuracyLogged` events in the merged log (must be 0 for a
    /// performance run — the detail-log compliance rule).
    accuracy_events: usize,
    /// TEST06 completeness verdict over the merged log.
    completeness: AuditOutcome,
    logical_log: JsonValue,
    /// The merged (client + shipped server) detail log, clock-aligned.
    records: Vec<TraceRecord>,
    metrics: mlperf_trace::metrics::MetricsSnapshot,
}

/// Drives one scenario against the daemon at `addr` over a fresh
/// connection (a connection is a run: the handshake resets the service).
fn run_one(addr: &str, label: &'static str, settings: &TestSettings) -> Result<RunSummary, String> {
    let mut qsl = MemoryQsl::new("netbench-qsl", 64, 64);
    let config = RemoteSutConfig::default();
    let hello = RemoteSut::hello_for(settings, qsl.total_sample_count() as u64, &config);
    let sink = Arc::new(RingBufferSink::unbounded());
    let metrics = Arc::new(MetricsRegistry::new());
    let client = RemoteSut::connect_instrumented(
        addr,
        hello,
        config,
        Some(sink.clone()),
        Some(metrics.clone()),
    )
    .map_err(|e| format!("{label}: connect to {addr} failed: {e}"))?;

    // Share the wire client's clock origin with the run loop, so run
    // events, client spans, and (re-stamped) server spans all land on one
    // time axis. Dropping the client at the end of the run drains the
    // link, which ships the server's spans into the same sink.
    let origin = client.clock_origin();
    let out = run_realtime_traced_at(settings, &mut qsl, Arc::new(client), sink.as_ref(), origin)
        .map_err(|e| format!("{label}: run failed: {e}"))?;

    let snapshot = metrics.snapshot();
    let frames = snapshot
        .counters
        .get("wire_frames_sent")
        .copied()
        .unwrap_or(0);
    let rtt = snapshot.histograms.get("wire_rtt_ns");
    println!(
        "{label:<8} {:<8} queries={} samples={} wire: {frames} frames sent, rtt mean {:.1} us over {} obs",
        if out.result.is_valid() { "VALID" } else { "INVALID" },
        out.result.query_count,
        out.result.sample_count,
        rtt.map_or(0.0, |h| h.mean() / 1_000.0),
        rtt.map_or(0, |h| h.count()),
    );

    let records = sink.snapshot();
    Ok(summarize(label, &out, records, snapshot))
}

/// Folds one finished run plus its merged detail log into a
/// [`RunSummary`]. Shared by the single-daemon and fleet paths.
fn summarize(
    label: &'static str,
    out: &mlperf_loadgen::des::RunOutcome,
    records: Vec<TraceRecord>,
    snapshot: mlperf_trace::metrics::MetricsSnapshot,
) -> RunSummary {
    let wire_events = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::WireEvent { .. }))
        .count();
    let accuracy_events = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::AccuracyLogged { .. }))
        .count();
    let completeness = completeness_report(&records).outcome;

    // End-to-end traces: issue (client) + compute (any server-side host —
    // `server`, or a shard label in fleet mode) + complete (client)
    // sharing one trace id.
    let mut by_phase: std::collections::HashMap<u64, [bool; 3]> = std::collections::HashMap::new();
    for record in &records {
        if let TraceEvent::SpanEvent {
            host,
            trace_id,
            phase,
            ..
        } = &record.event
        {
            let slot = match (host.as_str(), phase.as_str()) {
                ("client", "issue") => 0,
                (h, "compute") if h != "client" => 1,
                ("client", "complete") => 2,
                _ => continue,
            };
            by_phase.entry(*trace_id).or_default()[slot] = true;
        }
    }
    let end_to_end_traces = by_phase.values().filter(|p| p.iter().all(|&b| b)).count();

    // The logical detail log: deterministic fields only, in issue order.
    let queries: Vec<JsonValue> = out
        .records
        .iter()
        .map(|r| {
            JsonValue::object(vec![
                ("id", r.id.to_json_value()),
                ("scheduled_at_ns", r.scheduled_at.as_nanos().to_json_value()),
                ("sample_count", (r.sample_count as u64).to_json_value()),
                ("error", r.error.to_json_value()),
            ])
        })
        .collect();
    let logical_log = JsonValue::object(vec![
        ("scenario", label.to_json_value()),
        ("valid", out.result.is_valid().to_json_value()),
        ("query_count", out.result.query_count.to_json_value()),
        ("sample_count", out.result.sample_count.to_json_value()),
        ("queries", JsonValue::Array(queries)),
    ]);

    RunSummary {
        label,
        valid: out.result.is_valid(),
        issues: out.result.validity.iter().map(|i| i.to_string()).collect(),
        query_count: out.result.query_count,
        sample_count: out.result.sample_count,
        wire_events,
        end_to_end_traces,
        accuracy_events,
        completeness,
        logical_log,
        records,
        metrics: snapshot,
    }
}

/// Writes a flight-recorder dump (the freshest events of an INVALID run)
/// and reports where it went. With `analyze` set, the forensics layer
/// runs over the dumped tail and leaves a root-cause report beside it.
fn dump_flight(flight_dir: &str, summary: &RunSummary, analyze: bool) {
    let tail_start = summary.records.len().saturating_sub(FLIGHT_TAIL);
    let reason = format!(
        "{} run INVALID: {}",
        summary.label,
        summary.issues.join("; ")
    );
    let tail = &summary.records[tail_start..];
    let dump = render_flight_dump(&reason, tail, tail_start as u64);
    let path = format!("{flight_dir}/netbench_flight_{}.jsonl", summary.label);
    match std::fs::write(&path, dump) {
        Ok(()) => eprintln!("flight recorder: dumped {path}"),
        Err(e) => eprintln!("flight recorder: cannot write {path}: {e}"),
    }
    if analyze {
        let reasons = vec![reason];
        let analysis = mlperf_analysis::analyze_records(&path, tail, &reasons, None);
        let report_path = format!("{path}.analysis.md");
        match std::fs::write(&report_path, mlperf_analysis::render_markdown(&analysis)) {
            Ok(()) => eprintln!("forensics: wrote {report_path}"),
            Err(e) => eprintln!("forensics: cannot write {report_path}: {e}"),
        }
    }
}

/// Runs the offline + server pair against `addr`; returns the summaries
/// and the rendered logical detail log.
fn drive(
    addr: &str,
    seed: u64,
    flight_dir: &str,
    analyze: bool,
) -> Result<(Vec<RunSummary>, String), String> {
    let mut summaries = Vec::new();
    for (label, settings) in run_pair(seed) {
        let summary = run_one(addr, label, &settings)?;
        if !summary.valid {
            dump_flight(flight_dir, &summary, analyze);
        }
        summaries.push(summary);
    }
    let doc = JsonValue::object(vec![
        ("seed", seed.to_json_value()),
        (
            "runs",
            JsonValue::Array(summaries.iter().map(|s| s.logical_log.clone()).collect()),
        ),
    ]);
    let mut rendered = doc.to_pretty();
    rendered.push('\n');
    Ok((summaries, rendered))
}

fn check_summaries(summaries: &[RunSummary]) -> Vec<String> {
    let mut failures = Vec::new();
    for s in summaries {
        if !s.valid {
            failures.push(format!(
                "{}: run is INVALID over the wire: {}",
                s.label,
                s.issues.join("; ")
            ));
        }
        if s.query_count == 0 || s.sample_count == 0 {
            failures.push(format!("{}: run resolved no queries", s.label));
        }
        if s.wire_events == 0 {
            failures.push(format!(
                "{}: detail log recorded no wire events (instrumentation broken)",
                s.label
            ));
        }
        if let AuditOutcome::Fail(reason) = &s.completeness {
            failures.push(format!(
                "{}: merged detail log fails the completeness audit: {reason}",
                s.label
            ));
        }
        if s.accuracy_events != 0 {
            failures.push(format!(
                "{}: performance run leaked {} accuracy events into the detail log",
                s.label, s.accuracy_events
            ));
        }
        if s.end_to_end_traces == 0 {
            failures.push(format!(
                "{}: no trace id spans client issue -> server compute -> client complete",
                s.label
            ));
        }
    }
    failures
}

/// Renders one live stats line from a daemon snapshot.
fn stats_line(stats: &mlperf_wire::DaemonStats) -> String {
    let p99_us = stats
        .snapshot
        .histograms
        .get("wire_serve_ns")
        .map_or(0.0, |h| h.quantile(0.99) as f64 / 1_000.0);
    format!(
        "sut={} up {:.1}s served {} ({:.0} qps lifetime) in-flight {} sessions {} \
replays {} dups {} p99 serve {p99_us:.0} us",
        stats.sut_name,
        stats.uptime_ns as f64 / 1e9,
        stats.served,
        stats.throughput_qps(),
        stats.in_flight,
        stats.sessions,
        stats.snapshot.counters.get("wire_replays").unwrap_or(&0),
        stats.snapshot.counters.get("wire_dup_issues").unwrap_or(&0),
    )
}

// ---------------------------------------------------------------------------
// Fleet mode: --loopback --shards N
// ---------------------------------------------------------------------------

/// Per-shard simulated service time. The cycle makes the fleet
/// heterogeneous, so the weighted balancing policy has real throughput
/// ratios to work with.
fn fleet_per_sample(i: usize) -> Nanos {
    Nanos::from_micros(20 + 30 * (i as u64 % 4))
}

/// The fleet run pair: same shape as [`run_pair`], but server queries
/// carry a sample batch so each routed query occupies its shard long
/// enough for the kill watcher to catch the victim mid-query.
fn fleet_run_pair(seed: u64) -> [(&'static str, TestSettings); 2] {
    let [offline, (label, server)] = run_pair(seed);
    [offline, (label, server.with_samples_per_query(8))]
}

/// A fleet of loopback daemons, one per shard, each with its own device
/// speed, metrics registry, and shard label.
struct Fleet {
    labels: Vec<String>,
    addrs: Vec<String>,
    handles: Vec<ServerHandle>,
}

impl Fleet {
    fn spawn(shards: usize) -> Result<Fleet, String> {
        let mut fleet = Fleet {
            labels: Vec::new(),
            addrs: Vec::new(),
            handles: Vec::new(),
        };
        for i in 0..shards {
            let label = format!("shard-{i}");
            let device = SimHost::new(FixedLatencySut::new("netbench-dev", fleet_per_sample(i)));
            let config = ServeConfig::default()
                .with_metrics(Arc::new(MetricsRegistry::new()))
                .with_shard_label(&label);
            let handle = serve_on("127.0.0.1:0", Arc::new(device), config)
                .map_err(|e| format!("cannot start fleet daemon {label}: {e}"))?;
            fleet.addrs.push(handle.addr().to_string());
            fleet.handles.push(handle);
            fleet.labels.push(label);
        }
        Ok(fleet)
    }

    fn shutdown(&self) {
        for handle in &self.handles {
            handle.shutdown();
        }
    }
}

/// Drives one scenario through a [`ShardedSut`] router over fresh wire
/// connections to every fleet daemon. With `kill` set, a watcher thread
/// kills that shard's daemon the moment the router has a query in
/// flight on it — mid-query, so failover has real work to rescue.
fn run_fleet_one(
    fleet: &Fleet,
    label: &'static str,
    settings: &TestSettings,
    kill: Option<usize>,
) -> Result<RunSummary, String> {
    let mut qsl = MemoryQsl::new("netbench-qsl", 64, 64);
    let sink = Arc::new(RingBufferSink::unbounded());
    let metrics = Arc::new(MetricsRegistry::new());

    // Fast link-death detection: a killed daemon refuses redials, so two
    // cheap resume attempts fail in ~20 ms and the shard's in-flight
    // queries come back `Vanished` for the router to re-route — well
    // inside the server scenario's 50 ms latency bound.
    let config = RemoteSutConfig::default().with_resume(ResumePolicy {
        max_attempts: 2,
        backoff: Duration::from_millis(10),
    });

    let mut clients: Vec<Arc<RemoteSut>> = Vec::new();
    for (i, addr) in fleet.addrs.iter().enumerate() {
        let hello = RemoteSut::hello_for(settings, qsl.total_sample_count() as u64, &config);
        let client = RemoteSut::connect_instrumented(
            addr,
            hello,
            config.clone(),
            Some(sink.clone()),
            Some(metrics.clone()),
        )
        .map_err(|e| {
            format!(
                "{label}: connect to {} at {addr} failed: {e}",
                fleet.labels[i]
            )
        })?;
        clients.push(Arc::new(client));
    }

    // All clients share one clock origin, one sink, and one metrics
    // registry, so the merged log and counters cover the whole fleet on
    // one time axis.
    let origin = clients[0].clock_origin();
    let mut router = ShardedSut::new("netbench-fleet", BalancePolicy::WeightedThroughput)
        .with_sink(sink.clone())
        .with_metrics(metrics.clone())
        .with_origin(origin);
    for (i, client) in clients.iter().enumerate() {
        let probe = Arc::clone(client);
        let weight = 1e9 / fleet_per_sample(i).as_nanos() as f64;
        router = router.with_endpoint(
            ShardEndpoint::new(&fleet.labels[i], Arc::clone(client) as _)
                .with_weight(weight)
                .with_probe(Arc::new(move || probe.is_connected())),
        );
    }
    let router = Arc::new(router);

    let stop = AtomicBool::new(false);
    let (run, killed) = std::thread::scope(|scope| {
        let watcher = kill.map(|victim| {
            let router = Arc::clone(&router);
            let handle = &fleet.handles[victim];
            let stop = &stop;
            scope.spawn(move || {
                // Kill as the victim's third query dispatches: routing
                // increments `outstanding` before issuing on the wire,
                // and service time dwarfs this poll interval, so the
                // query is still in flight when the daemon dies.
                while !stop.load(Ordering::SeqCst) {
                    let status = &router.status()[victim];
                    if status.routed >= 3 && status.outstanding > 0 {
                        handle.kill();
                        return true;
                    }
                    std::thread::sleep(Duration::from_micros(20));
                }
                false
            })
        });
        let run = run_realtime_traced_at(
            settings,
            &mut qsl,
            Arc::clone(&router) as _,
            sink.as_ref(),
            origin,
        );
        stop.store(true, Ordering::SeqCst);
        let killed = watcher.map(|w| w.join().expect("kill watcher panicked"));
        (run, killed)
    });
    let out = run.map_err(|e| format!("{label}: fleet run failed: {e}"))?;
    if killed == Some(false) {
        return Err(format!(
            "{label}: kill watcher never caught the victim shard mid-query"
        ));
    }

    // Drain every surviving link before snapshotting: shutdown ships the
    // server-side spans into the shared sink so the merged log covers
    // the whole fleet. The killed daemon's spans die with it — the
    // completeness audit is judged from client-side records, which
    // survive the failover.
    for client in &clients {
        client.shutdown();
    }
    let snapshot = metrics.snapshot();
    let records = sink.snapshot();
    let shard_rows = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::ShardEvent { .. }))
        .count();
    println!(
        "{label:<8} {:<8} queries={} samples={} fleet: {} shards, {shard_rows} shard rows{}",
        if out.result.is_valid() {
            "VALID"
        } else {
            "INVALID"
        },
        out.result.query_count,
        out.result.sample_count,
        fleet.labels.len(),
        if killed == Some(true) {
            ", victim killed mid-query"
        } else {
            ""
        },
    );
    Ok(summarize(label, &out, records, snapshot))
}

/// Runs the offline + server pair through the fleet router, killing the
/// victim shard mid-stream during the server run; returns the summaries
/// and the rendered logical detail log.
fn drive_fleet(
    fleet: &Fleet,
    seed: u64,
    victim: usize,
    flight_dir: &str,
    analyze: bool,
) -> Result<(Vec<RunSummary>, String), String> {
    let mut summaries = Vec::new();
    for (label, settings) in fleet_run_pair(seed) {
        let kill = (label == "server").then_some(victim);
        let summary = run_fleet_one(fleet, label, &settings, kill)?;
        if !summary.valid {
            dump_flight(flight_dir, &summary, analyze);
        }
        summaries.push(summary);
    }
    let doc = JsonValue::object(vec![
        ("seed", seed.to_json_value()),
        ("shards", (fleet.labels.len() as u64).to_json_value()),
        ("victim", fleet.labels[victim].to_json_value()),
        (
            "runs",
            JsonValue::Array(summaries.iter().map(|s| s.logical_log.clone()).collect()),
        ),
    ]);
    let mut rendered = doc.to_pretty();
    rendered.push('\n');
    Ok((summaries, rendered))
}

/// Fleet-specific `--check` assertions over the server-scenario summary:
/// the kill produced the victim's `down` transition plus at least one
/// `failover` row rescuing a query off the dead shard.
fn check_fleet_rescue(summary: &RunSummary, victim: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let mut down = false;
    let mut failovers = 0u64;
    for record in &summary.records {
        if let TraceEvent::ShardEvent { shard, kind, .. } = &record.event {
            if shard == victim {
                match kind.as_str() {
                    "down" => down = true,
                    "failover" => failovers += 1,
                    _ => {}
                }
            }
        }
    }
    if !down {
        failures.push(format!(
            "server: killed shard {victim} never transitioned to down in the merged log"
        ));
    }
    if failovers == 0 {
        failures.push(format!(
            "server: no failover row rescued a query off killed shard {victim}"
        ));
    }
    failures
}

/// One console line covering the whole fleet, for `--watch`.
fn fleet_watch_line(addrs: &[String], labels: &[String]) -> String {
    let mut parts = Vec::new();
    for (addr, label) in addrs.iter().zip(labels) {
        match fetch_stats(addr) {
            Ok(s) => {
                let shard = if s.shard.is_empty() { label } else { &s.shard };
                parts.push(format!(
                    "{shard} served {} in-flight {}",
                    s.served, s.in_flight
                ));
            }
            Err(_) => parts.push(format!("{label} dead")),
        }
    }
    parts.join(" | ")
}

/// Per-shard stats table keyed by the daemons' shard labels, rendering
/// the per-session outstanding counts; a dead daemon is reported, not
/// treated as a failure.
fn fleet_stats_table(fleet: &Fleet) {
    println!("fleet stats:");
    for (addr, label) in fleet.addrs.iter().zip(&fleet.labels) {
        match fetch_stats(addr) {
            Ok(s) => {
                let per_session: Vec<String> = s
                    .session_outstanding
                    .iter()
                    .map(|(sid, n)| format!("{sid}:{n}"))
                    .collect();
                println!(
                    "  {:<10} up {:>6.1}s served {:>5} in-flight {:>3} sessions {:>2} \
per-session [{}]",
                    if s.shard.is_empty() { label } else { &s.shard },
                    s.uptime_ns as f64 / 1e9,
                    s.served,
                    s.in_flight,
                    s.sessions,
                    per_session.join(","),
                );
            }
            Err(_) => println!("  {label:<10} dead (unreachable — killed mid-run)"),
        }
    }
}

/// The output artifacts both the single-daemon and fleet paths can write.
struct OutputPaths {
    out: Option<String>,
    metrics: Option<String>,
    detail: Option<String>,
    chrome: Option<String>,
}

/// Boolean run modes shared by both paths.
struct ModeFlags {
    analyze: bool,
    stats: bool,
    watch: bool,
    check: bool,
}

/// Writes the requested artifact files (logical log, metrics snapshots,
/// merged detail log, Chrome trace) for a finished run pair.
fn write_artifacts(
    summaries: &[RunSummary],
    rendered: &str,
    seed: u64,
    paths: &OutputPaths,
) -> Result<(), String> {
    if let Some(path) = &paths.out {
        std::fs::write(path, rendered).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote logical detail log to {path}");
    }

    // Machine-readable wire metrics, one snapshot per run.
    if let Some(path) = &paths.metrics {
        let doc = JsonValue::object(vec![
            ("seed", seed.to_json_value()),
            ("tool", "netbench".to_json_value()),
            (
                "runs",
                JsonValue::Array(
                    summaries
                        .iter()
                        .map(|s| {
                            JsonValue::object(vec![
                                ("scenario", s.label.to_json_value()),
                                ("metrics", s.metrics.to_json_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let mut text = doc.to_pretty();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote metrics snapshot to {path}");
    }

    // The merged, clock-aligned detail log of the server-scenario run (the
    // richer of the pair), as JSONL and/or a Chrome trace.
    if paths.detail.is_some() || paths.chrome.is_some() {
        let merged = &summaries.last().expect("run pair is never empty").records;
        if let Some(path) = &paths.detail {
            let mut text = String::new();
            for record in merged {
                text.push_str(&record.to_json_string());
                text.push('\n');
            }
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote merged detail log to {path}");
        }
        if let Some(path) = &paths.chrome {
            std::fs::write(path, chrome_trace_json(merged))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote chrome trace to {path}");
        }
    }
    Ok(())
}

/// The fleet entry point: spawn the daemons, drive the pair through the
/// router, kill the seeded victim mid-server-run, and (with `--check`)
/// prove the rescue reproduces byte-identically on a second fresh fleet.
fn fleet_main(
    shards: usize,
    seed: u64,
    paths: &OutputPaths,
    flight_dir: &str,
    flags: &ModeFlags,
) -> ExitCode {
    if shards < 2 {
        eprintln!("--shards needs at least 2 endpoints (one must survive the kill)");
        return ExitCode::FAILURE;
    }
    let fleet = match Fleet::spawn(shards) {
        Ok(fleet) => fleet,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let victim = (seed as usize) % shards;
    println!(
        "fleet: {shards} loopback shards behind one weighted router; {} dies mid-server-run",
        fleet.labels[victim]
    );
    for (i, (label, addr)) in fleet.labels.iter().zip(&fleet.addrs).enumerate() {
        println!(
            "  {label} on {addr} ({} us/sample)",
            fleet_per_sample(i).as_nanos() / 1_000
        );
    }

    let watcher = if flags.watch {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_t = Arc::clone(&stop);
        let addrs = fleet.addrs.clone();
        let labels = fleet.labels.clone();
        let handle = std::thread::spawn(move || {
            while !stop_t.load(Ordering::SeqCst) {
                print!("\rwatch: {}        ", fleet_watch_line(&addrs, &labels));
                let _ = std::io::stdout().flush();
                std::thread::sleep(Duration::from_millis(250));
            }
            println!();
        });
        Some((stop, handle))
    } else {
        None
    };

    let drive_result = drive_fleet(&fleet, seed, victim, flight_dir, flags.analyze);
    if let Some((stop, handle)) = watcher {
        stop.store(true, Ordering::SeqCst);
        let _ = handle.join();
    }
    let (summaries, rendered) = match drive_result {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("{e}");
            fleet.shutdown();
            return ExitCode::FAILURE;
        }
    };

    if let Err(e) = write_artifacts(&summaries, &rendered, seed, paths) {
        eprintln!("{e}");
        fleet.shutdown();
        return ExitCode::FAILURE;
    }

    if flags.stats {
        fleet_stats_table(&fleet);
    }

    let mut exit = ExitCode::SUCCESS;
    if flags.check {
        let mut failures = check_summaries(&summaries);
        failures.extend(check_fleet_rescue(
            summaries.last().expect("run pair is never empty"),
            &fleet.labels[victim],
        ));
        // Reproducibility: a second fresh fleet under the same seed must
        // survive the same kill and render a byte-identical logical log.
        match Fleet::spawn(shards) {
            Ok(fleet2) => {
                match drive_fleet(&fleet2, seed, victim, flight_dir, flags.analyze) {
                    Ok((again, rendered_again)) => {
                        failures.extend(check_summaries(&again));
                        failures.extend(check_fleet_rescue(
                            again.last().expect("run pair is never empty"),
                            &fleet.labels[victim],
                        ));
                        if rendered != rendered_again {
                            failures.push(
                                "fleet logical detail log is not byte-reproducible across fleets"
                                    .into(),
                            );
                        }
                    }
                    Err(e) => failures.push(e),
                }
                fleet2.shutdown();
            }
            Err(e) => failures.push(e),
        }
        if failures.is_empty() {
            println!(
                "netbench fleet check: OK ({shards} shards, {} killed mid-run, runs VALID, \
merged log complete, logical log byte-stable)",
                fleet.labels[victim]
            );
        } else {
            for f in &failures {
                eprintln!("netbench fleet check: {f}");
            }
            exit = ExitCode::FAILURE;
        }
    }
    fleet.shutdown();
    exit
}

enum Mode {
    Serve(String),
    Connect(String),
    Loopback,
}

fn main() -> ExitCode {
    let _flight = mlperf_harness::panic_guard::install("netbench");
    let mut mode: Option<Mode> = None;
    let mut shards: Option<usize> = None;
    let mut seed = 0xBE7Cu64;
    let mut out_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut detail_path: Option<String> = None;
    let mut chrome_path: Option<String> = None;
    let mut flight_dir = ".".to_string();
    let mut analyze_mode = false;
    let mut stats_mode = false;
    let mut watch_mode = false;
    let mut check_mode = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--serve" | "--connect" => {
                let Some(addr) = it.next() else {
                    eprintln!("{arg} needs an address\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                mode = Some(if arg == "--serve" {
                    Mode::Serve(addr.clone())
                } else {
                    Mode::Connect(addr.clone())
                });
            }
            "--loopback" => mode = Some(Mode::Loopback),
            "--shards" => {
                let Some(v) = it.next() else {
                    eprintln!("--shards needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                shards = match v.parse() {
                    Ok(n) => Some(n),
                    Err(_) => {
                        eprintln!("--shards needs an integer, got `{v}`\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--seed" => {
                let Some(v) = it.next() else {
                    eprintln!("--seed needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                seed = match v.parse() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--seed needs an integer, got `{v}`\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--out" | "--metrics" | "--detail" | "--chrome" | "--flight-dir" => {
                let Some(v) = it.next() else {
                    eprintln!("{arg} needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                match arg.as_str() {
                    "--out" => out_path = Some(v.clone()),
                    "--metrics" => metrics_path = Some(v.clone()),
                    "--detail" => detail_path = Some(v.clone()),
                    "--chrome" => chrome_path = Some(v.clone()),
                    _ => flight_dir = v.clone(),
                }
            }
            "--analyze" => analyze_mode = true,
            "--stats" => stats_mode = true,
            "--watch" => watch_mode = true,
            "--check" => check_mode = true,
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }

    let Some(mode) = mode else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    // --shards: the fleet path. The daemons are spawned in-process, so
    // the flag only makes sense with --loopback.
    if let Some(n) = shards {
        if !matches!(mode, Mode::Loopback) {
            eprintln!("--shards spawns an in-process fleet; it requires --loopback\n{USAGE}");
            return ExitCode::FAILURE;
        }
        let paths = OutputPaths {
            out: out_path,
            metrics: metrics_path,
            detail: detail_path,
            chrome: chrome_path,
        };
        let flags = ModeFlags {
            analyze: analyze_mode,
            stats: stats_mode,
            watch: watch_mode,
            check: check_mode,
        };
        return fleet_main(n, seed, &paths, &flight_dir, &flags);
    }

    // --serve never returns: export the device and wait for clients. The
    // daemon carries a metrics registry so `Stats` probes answer with
    // real counters and latency histograms.
    let addr = match mode {
        Mode::Serve(addr) => {
            let registry = Arc::new(MetricsRegistry::new());
            let config = ServeConfig::default().with_metrics(registry);
            let handle = match serve_on(&addr, Arc::new(benchmark_device()), config) {
                Ok(handle) => handle,
                Err(e) => {
                    eprintln!("cannot serve on {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "serving netbench-dev on {} (one run per connection; ctrl-c to stop)",
                handle.addr()
            );
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Mode::Connect(addr) => addr,
        Mode::Loopback => {
            let registry = Arc::new(MetricsRegistry::new());
            let config = ServeConfig::default().with_metrics(registry);
            let handle = match serve_on("127.0.0.1:0", Arc::new(benchmark_device()), config) {
                Ok(handle) => handle,
                Err(e) => {
                    eprintln!("cannot start loopback daemon: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("loopback daemon on {}", handle.addr());
            // Leak the handle: the daemon lives for the process.
            let addr = handle.addr().to_string();
            std::mem::forget(handle);
            addr
        }
    };

    // --watch: poll the daemon's live stats onto one console line while
    // the runs execute.
    let watcher = if watch_mode {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_t = Arc::clone(&stop);
        let addr_t = addr.clone();
        let handle = std::thread::spawn(move || {
            while !stop_t.load(Ordering::SeqCst) {
                if let Ok(stats) = fetch_stats(&addr_t) {
                    print!("\rwatch: {}        ", stats_line(&stats));
                    let _ = std::io::stdout().flush();
                }
                std::thread::sleep(Duration::from_millis(250));
            }
            println!();
        });
        Some((stop, handle))
    } else {
        None
    };

    let drive_result = drive(&addr, seed, &flight_dir, analyze_mode);
    if let Some((stop, handle)) = watcher {
        stop.store(true, Ordering::SeqCst);
        let _ = handle.join();
    }
    let (summaries, rendered) = match drive_result {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let paths = OutputPaths {
        out: out_path,
        metrics: metrics_path,
        detail: detail_path,
        chrome: chrome_path,
    };
    if let Err(e) = write_artifacts(&summaries, &rendered, seed, &paths) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    // --stats: one live snapshot from the daemon after the runs.
    let mut stats_failure: Option<String> = None;
    if stats_mode {
        match fetch_stats(&addr) {
            Ok(stats) => println!("stats: {}", stats_line(&stats)),
            Err(e) => stats_failure = Some(format!("stats snapshot failed: {e}")),
        }
    }

    if check_mode {
        let mut failures = check_summaries(&summaries);
        failures.extend(stats_failure);
        // Reproducibility: the same seed over fresh connections must
        // render a byte-identical logical detail log.
        match drive(&addr, seed, &flight_dir, analyze_mode) {
            Ok((again, rendered_again)) => {
                failures.extend(check_summaries(&again));
                if rendered != rendered_again {
                    failures.push(
                        "logical detail log is not byte-reproducible across connections".into(),
                    );
                }
            }
            Err(e) => failures.push(e),
        }
        if failures.is_empty() {
            println!(
                "netbench check: OK (runs VALID, logical log byte-stable, merged log \
complete with end-to-end traces)"
            );
        } else {
            for f in &failures {
                eprintln!("netbench check: {f}");
            }
            return ExitCode::FAILURE;
        }
    } else if let Some(f) = stats_failure {
        eprintln!("netbench: {f}");
        return ExitCode::FAILURE;
    }

    ExitCode::SUCCESS
}
