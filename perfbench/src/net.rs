//! The `wire-server` and `fleet-server` workloads: wall-clock Server runs
//! against a service that answers at zero cost, so every microsecond
//! measured belongs to the harness.
//!
//! `wire-server` drives one loopback daemon through one `RemoteSut`;
//! `fleet-server` drives a least-outstanding `ShardedSut` over two loopback
//! daemons, one connection each. Every sub-run builds a fresh stack (new
//! daemons, new sessions) and tears it down before the next, so no more
//! than two connections are ever open.

use crate::layers::{CallStamp, CallTimer, FreeService};
use crate::measure::{
    capacity_search, median, p50_p99_us, process_cpu_s, quantile, seeds_for, QUIET_QUANTILE,
};
use crate::{failed_queries, qsl, Deadline, Report, BOUND, CHECKPOINT_EVERY, QSL_SIZE};
use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::des::RunOutcome;
use mlperf_loadgen::journal::{load_run_journal, JournalConfig};
use mlperf_loadgen::realtime::{
    run_realtime, run_realtime_journaled, run_realtime_traced, run_realtime_traced_at,
};
use mlperf_loadgen::sut::RealtimeSut;
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::validate::percentile_latency;
use mlperf_loadgen::{JournaledRun, LoadGenError};
use mlperf_sut::{BalancePolicy, ShardEndpoint, ShardedSut};
use mlperf_trace::{LogHistogram, MetricsRegistry, NoopSink, RingBufferSink, TraceSink};
use mlperf_wire::{loopback_instrumented, RemoteSut, RemoteSutConfig, ServeConfig, ServerHandle};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The fixed offered rate of the latency phase.
pub const FIXED_QPS: f64 = 5_000.0;
/// Offered rate of a saturation burst: every query is due at once.
const BURST_QPS: f64 = 10_000_000.0;
/// Capacity search: relative resolution, and its bracket around the
/// measured saturation rate.
const SEARCH_TOLERANCE: f64 = 0.03;
const SEARCH_LO: f64 = 0.125;
const SEARCH_HI: f64 = 1.5;
/// Probes per offered rate in the capacity search.
const PROBE_ATTEMPTS: usize = 2;

/// Which stack sits behind the LoadGen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One loopback daemon, one `RemoteSut`.
    Wire,
    /// A `ShardedSut` over two loopback daemons.
    Fleet,
}

impl Topology {
    fn shards(self) -> usize {
        match self {
            Topology::Wire => 1,
            Topology::Fleet => 2,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Topology::Wire => "wire-server",
            Topology::Fleet => "fleet-server",
        }
    }
}

/// Server settings at `qps` for `secs` seconds of schedule.
pub fn settings(seed: u64, k: u64, qps: f64, secs: f64) -> TestSettings {
    TestSettings::server(qps, BOUND)
        .with_seeds(seeds_for(seed, k))
        .with_min_query_count(((qps * secs) as u64).max(1))
        .with_min_duration(Nanos::from_secs_f64(secs))
}

fn burst_settings(seed: u64, k: u64, queries: u64) -> TestSettings {
    TestSettings::server(BURST_QPS, BOUND)
        .with_seeds(seeds_for(seed, k))
        .with_min_query_count(queries)
        .with_min_duration(Nanos::from_micros(1))
}

/// Daemons and their connected clients, before any decorator.
pub struct Stack {
    service: Arc<FreeService>,
    clients: Vec<Arc<RemoteSut>>,
    daemons: Vec<ServerHandle>,
    client_metrics: Vec<Arc<MetricsRegistry>>,
    daemon_metrics: Vec<Arc<MetricsRegistry>>,
}

impl Stack {
    /// Starts the daemons and connects and handshakes one client to each.
    /// With `sink`, the clients log wire events into it; with `metrics`,
    /// they keep wire counters.
    pub fn build(
        topo: Topology,
        s: &TestSettings,
        sink: Option<Arc<dyn TraceSink>>,
        metrics: bool,
    ) -> Result<Self, String> {
        let service = Arc::new(FreeService::default());
        let mut stack = Stack {
            service: Arc::clone(&service),
            clients: Vec::new(),
            daemons: Vec::new(),
            client_metrics: Vec::new(),
            daemon_metrics: Vec::new(),
        };
        for i in 0..topo.shards() {
            let daemon_metrics = Arc::new(MetricsRegistry::new());
            let mut serve = ServeConfig::default().with_metrics(Arc::clone(&daemon_metrics));
            if topo == Topology::Fleet {
                serve = serve.with_shard_label(&format!("shard-{i}"));
            }
            let config = RemoteSutConfig::default();
            let hello = RemoteSut::hello_for(s, QSL_SIZE as u64, &config);
            let client_metrics = metrics.then(|| Arc::new(MetricsRegistry::new()));
            let (client, daemon) = loopback_instrumented(
                Arc::clone(&service) as _,
                serve,
                hello,
                config,
                sink.clone(),
                client_metrics.clone(),
            )
            .map_err(|e| format!("loopback daemon {i}: {e}"))?;
            stack.clients.push(Arc::new(client));
            stack.daemons.push(daemon);
            stack.daemon_metrics.push(daemon_metrics);
            stack.client_metrics.extend(client_metrics);
        }
        Ok(stack)
    }

    /// What the LoadGen drives: the client itself, or a least-outstanding
    /// router over the clients. `wrap` decorates each shard endpoint.
    pub fn sut(
        &self,
        topo: Topology,
        mut wrap: impl FnMut(Arc<dyn RealtimeSut>) -> Arc<dyn RealtimeSut>,
    ) -> (Arc<dyn RealtimeSut>, Option<Arc<ShardedSut>>) {
        match topo {
            Topology::Wire => (Arc::clone(&self.clients[0]) as _, None),
            Topology::Fleet => {
                let router = self.clients.iter().enumerate().fold(
                    ShardedSut::new("fleet", BalancePolicy::LeastOutstanding),
                    |router, (i, client)| {
                        let endpoint = wrap(Arc::clone(client) as _);
                        router.with_endpoint(ShardEndpoint::new(&format!("shard-{i}"), endpoint))
                    },
                );
                let router = Arc::new(router);
                (Arc::clone(&router) as _, Some(router))
            }
        }
    }

    /// Drains and closes every client, then stops every daemon and joins
    /// its threads.
    pub fn shutdown(self) {
        for client in &self.clients {
            client.shutdown();
        }
        for daemon in &self.daemons {
            daemon.shutdown();
        }
    }
}

/// Problems with a wall-clock run's records, and its failed queries
/// (errored or never completed). The recorder already rejects duplicate
/// completions and completions that do not echo the issued sample ids.
fn audit(out: &RunOutcome) -> (Vec<String>, u64) {
    let mut problems = Vec::new();
    let ids_in_order = out
        .records
        .iter()
        .enumerate()
        .all(|(i, r)| r.id == i as u64);
    if !ids_in_order || out.records.len() as u64 != out.result.query_count {
        problems.push("query records are not one per issued query".into());
    }
    (problems, failed_queries(out))
}

/// How the LoadGen runs a sub-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `run_realtime`, no instruments.
    Plain,
    /// `run_realtime_traced` into a ring-buffer detail log, with the wire
    /// clients logging and counting too.
    Logged,
    /// `run_realtime_journaled`: a checkpoint every 16 issued queries,
    /// `fsync` batching off.
    Journaled,
}

/// One finished sub-run.
struct SubRun {
    out: RunOutcome,
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
}

impl SubRun {
    fn completed(&self) -> f64 {
        self.out
            .records
            .iter()
            .filter(|r| r.completed_at.is_some() && !r.error)
            .count() as f64
    }
}

/// Builds a fresh stack, runs `s` through it in `mode`, tears the stack
/// down and folds the outcome into `report`.
fn sub_run(
    topo: Topology,
    s: &TestSettings,
    mode: Mode,
    work: &Path,
    report: &mut Report,
) -> Option<SubRun> {
    let start = Instant::now();
    let mut q = qsl();
    let log = Arc::new(RingBufferSink::unbounded());
    let logged = mode == Mode::Logged;
    let stack = match Stack::build(topo, s, logged.then(|| log.clone() as _), logged) {
        Ok(stack) => stack,
        Err(e) => {
            report.problems.push(e);
            return None;
        }
    };
    let (sut, _) = stack.sut(topo, |e| e);
    let setup_s = start.elapsed().as_secs_f64();
    let path = work.join(format!("{}.mlpj", topo.name()));
    let cpu = process_cpu_s();
    let wall = Instant::now();
    let out = match mode {
        Mode::Plain => run_realtime(s, &mut q, sut),
        Mode::Logged => run_realtime_traced(s, &mut q, sut, &*log),
        Mode::Journaled => {
            let cfg = JournalConfig::new(&path)
                .with_checkpoint_every(CHECKPOINT_EVERY)
                .with_fsync_every(u32::MAX);
            run_realtime_journaled(s, &mut q, sut, &NoopSink, &cfg, false).and_then(|run| match run
            {
                JournaledRun::Finished(out) => Ok(*out),
                JournaledRun::Halted { checkpoint } => Err(LoadGenError::Journal(format!(
                    "halted at checkpoint {checkpoint} with no halt armed"
                ))),
            })
        }
    };
    let wall_s = wall.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu;
    stack.shutdown();
    if mode == Mode::Journaled {
        if let Ok(out) = &out {
            report.problems.extend(check_journal(&path, out));
        }
        let _ = std::fs::remove_file(&path);
    }
    match out {
        Ok(out) => {
            let (problems, failed) = audit(&out);
            report.problems.extend(problems);
            report.attempted += out.records.len() as u64;
            report.failed += failed;
            Some(SubRun {
                out,
                setup_s,
                wall_s,
                cpu_s,
            })
        }
        Err(e) => {
            report.problems.push(format!("wall-clock run failed: {e}"));
            None
        }
    }
}

/// Problems with the journal a journaled wall-clock run left.
fn check_journal(path: &Path, out: &RunOutcome) -> Vec<String> {
    let expected = out.records.len() as u64 / CHECKPOINT_EVERY;
    match load_run_journal(path) {
        Ok(j) if j.checkpoints == expected && j.torn.is_none() => Vec::new(),
        Ok(j) => vec![format!(
            "wall-clock journal holds {} checkpoints, expected {expected}",
            j.checkpoints
        )],
        Err(e) => vec![format!("wall-clock journal: {e}")],
    }
}

/// Length of one fixed-rate window.
const WINDOW_SECS: f64 = 0.25;
/// Windows of each mode per round of the end-to-end run.
const WINDOWS_PER_MODE: usize = 2;
/// Saturation bursts per traced run, and their size per measured second.
const BURSTS: u64 = 5;
const BURST_QUERIES_PER_SECOND: f64 = 200.0;
/// Length of one capacity probe.
const PROBE_SECS: f64 = 0.5;

/// Whether a probe is VALID and drains without a growing backlog: the
/// queries issued in its second half, where a growing backlog shows first,
/// meet the latency bound too.
fn passes(run: &SubRun) -> bool {
    let late = &run.out.records[run.out.records.len() / 2..];
    run.out.result.is_valid()
        && run.out.result.error_count == 0
        && percentile_latency(late, 0.99).is_some_and(|p99| p99 <= BOUND)
}

/// The end-to-end run: rounds of plain, logged and journaled fixed-rate
/// windows until the deadline, priced in process CPU time per completed
/// query over the whole run. Wall-clock latency swings with the host's
/// other tenants from run to run; the CPU the harness spends per query
/// does not.
pub fn run(topo: Topology, seed: u64, deadline: &Deadline, work: &Path) -> Report {
    let mut report = Report::default();
    let modes = [Mode::Plain, Mode::Logged, Mode::Journaled];
    let (mut cpu_s, mut completed, mut setups) = ([0.0; 3], [0.0; 3], Vec::new());
    let (mut k, mut rounds, mut invalid) = (0u64, 0, 0);
    while rounds < 3 || !deadline.passed() {
        for mode in modes.iter().cycle().take(modes.len() * WINDOWS_PER_MODE) {
            k += 1;
            let s = settings(seed, k, FIXED_QPS, WINDOW_SECS);
            if let Some(run) = sub_run(topo, &s, *mode, work, &mut report) {
                invalid += usize::from(!run.out.result.is_valid());
                setups.push(run.setup_s);
                cpu_s[*mode as usize] += run.cpu_s;
                completed[*mode as usize] += run.completed();
            }
        }
        rounds += 1;
    }
    println!(
        "# {}: {rounds} rounds of {WINDOWS_PER_MODE} plain, logged and journaled {WINDOW_SECS}-s \
         windows at {FIXED_QPS} qps, {invalid} INVALID",
        topo.name()
    );
    let cpu_ns = |m: Mode| cpu_s[m as usize] * 1e9 / completed[m as usize].max(1.0);
    report.set("sim_ns_per_query", cpu_ns(Mode::Plain));
    report.set("sim_logged_ns_per_query", cpu_ns(Mode::Logged));
    report.set("sim_journaled_ns_per_query", cpu_ns(Mode::Journaled));
    report.set("setup_s", median(&setups));
    report
}

/// Saturation and capacity: (completed queries per wall second when every
/// query is due at once, highest VALID Poisson rate). Sub-run seeds are
/// drawn from `next`.
fn capacity(
    topo: Topology,
    seed: u64,
    seconds: f64,
    next: &mut impl FnMut() -> u64,
    work: &Path,
    report: &mut Report,
) -> (f64, f64) {
    let queries = ((seconds * BURST_QUERIES_PER_SECOND) as u64).max(2_000);
    let mut sat = Vec::new();
    for _ in 0..BURSTS {
        let s = burst_settings(seed, next(), queries);
        if let Some(run) = sub_run(topo, &s, Mode::Plain, work, report) {
            sat.push(run.completed() / run.wall_s);
        }
    }
    let sat_qps = quantile(&sat, 1.0 - QUIET_QUANTILE);
    let mut probes = Vec::new();
    let peak = capacity_search(
        sat_qps * SEARCH_LO,
        sat_qps * SEARCH_HI,
        FIXED_QPS / 10.0,
        SEARCH_TOLERANCE,
        |qps| {
            // A rate passes when either of two probes does, so one host
            // stall cannot fail a rate the harness sustains.
            let pass = (0..PROBE_ATTEMPTS).any(|_| {
                let s = settings(seed, next(), qps, PROBE_SECS);
                sub_run(topo, &s, Mode::Plain, work, report).is_some_and(|r| passes(&r))
            });
            probes.push(format!("{qps:.0}:{}", if pass { "pass" } else { "fail" }));
            pass
        },
    );
    println!(
        "# {}: burst rates (1/s) {sat:.0?}; capacity probes {}",
        topo.name(),
        probes.join(" ")
    );
    (sat_qps, peak)
}

/// One query's latency split across the layers, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Parts {
    /// The LoadGen-measured latency: completion minus scheduled time.
    latency: f64,
    /// Scheduled time until the LoadGen called the SUT.
    wait: f64,
    /// The call the LoadGen made: into the client, or into the router.
    call: f64,
    /// The wire client's own call (the shard's, behind a router).
    client_call: f64,
    /// Client call start until the service saw the query.
    uplink: Option<f64>,
    /// Service exit until the client call returned.
    downlink: Option<f64>,
    /// What the LoadGen measured beyond the wait and the call.
    residual: f64,
}

impl Parts {
    /// The router's own share of the call; 0 on a single wire.
    fn route(&self) -> f64 {
        self.call - self.client_call
    }
}

/// The layer split of the traced sub-runs.
#[derive(Default)]
struct Split {
    parts: Vec<Parts>,
    window_p50_us: Vec<f64>,
    queue: LogHistogram,
    frames: u64,
    retries_failures: u64,
    queries: u64,
    max_in_flight: usize,
    max_share: f64,
}

impl Split {
    /// Quantile `q` of one part over every query, in microseconds.
    fn us(&self, part: impl Fn(&Parts) -> Option<f64>, q: f64) -> f64 {
        let values: Vec<f64> = self.parts.iter().filter_map(part).collect();
        quantile(&values, q) / 1e3
    }
}

/// Runs `s` through the decorated stack and splits each query's latency.
fn traced_sub_run(
    topo: Topology,
    s: &TestSettings,
    split: &mut Split,
    report: &mut Report,
) -> Option<()> {
    let mut q = qsl();
    let stack = match Stack::build(topo, s, None, true) {
        Ok(stack) => stack,
        Err(e) => {
            report.problems.push(e);
            return None;
        }
    };
    // One origin for the LoadGen clock and every decorator, taken after
    // set-up so no stamp carries the set-up time.
    let origin = Instant::now();
    stack.service.start_stamping(origin);
    let mut shard_timers = Vec::new();
    let (inner, router) = stack.sut(topo, |endpoint| {
        let timer = Arc::new(CallTimer::new(endpoint, origin));
        shard_timers.push(Arc::clone(&timer));
        timer
    });
    let outer = Arc::new(CallTimer::new(inner, origin));
    let out = run_realtime_traced_at(s, &mut q, outer.clone(), &NoopSink, origin);
    let status = router.as_ref().map(|r| r.status());
    let service_stamps = stack.service.stamps();
    let client_metrics: Vec<_> = stack.client_metrics.iter().map(|m| m.snapshot()).collect();
    let daemon_metrics: Vec<_> = stack.daemon_metrics.iter().map(|m| m.snapshot()).collect();
    drop(router);
    stack.shutdown();
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            report
                .problems
                .push(format!("traced wall-clock run failed: {e}"));
            return None;
        }
    };
    let (problems, failed) = audit(&out);
    report.problems.extend(problems);
    report.attempted += out.records.len() as u64;
    report.failed += failed;

    // The wire client's calls: the outer calls on a single wire, the
    // per-shard calls behind a router.
    let by_id = |stamps: Vec<CallStamp>| -> HashMap<u64, CallStamp> {
        stamps.into_iter().map(|c| (c.query_id, c)).collect()
    };
    let outer_calls = by_id(outer.stamps());
    let client_calls = if shard_timers.is_empty() {
        outer_calls.clone()
    } else {
        by_id(shard_timers.iter().flat_map(|t| t.stamps()).collect())
    };
    for record in &out.records {
        let (Some(latency), Some(call), Some(client)) = (
            record.scored_latency(),
            outer_calls.get(&record.id),
            client_calls.get(&record.id),
        ) else {
            continue;
        };
        let latency = latency.as_nanos() as f64;
        let wait = call.start_ns as f64 - call.scheduled_ns as f64;
        let duration = (call.end_ns - call.start_ns) as f64;
        let stamps = service_stamps.get(&record.id);
        split.parts.push(Parts {
            latency,
            wait,
            call: duration,
            client_call: (client.end_ns - client.start_ns) as f64,
            uplink: stamps.map(|&(entry, _)| entry as f64 - client.start_ns as f64),
            downlink: stamps.map(|&(_, exit)| client.end_ns as f64 - exit as f64),
            residual: latency - wait - duration,
        });
    }
    split.window_p50_us.push(p50_p99_us(&out.result).0);
    for m in &daemon_metrics {
        if let Some(h) = m.histogram("wire_queue_ns") {
            split.queue.merge(h);
        }
        split.retries_failures += m.counter("wire_dup_issues");
    }
    for m in &client_metrics {
        split.frames += m.counter("wire_frames_sent") + m.counter("wire_frames_received");
        split.retries_failures += [
            "wire_timeouts",
            "wire_crc_failures",
            "wire_orphan_completions",
            "wire_disconnects",
        ]
        .iter()
        .map(|c| m.counter(c))
        .sum::<u64>();
    }
    split.queries += out.records.len() as u64;
    split.max_in_flight = split.max_in_flight.max(outer.max_in_flight());
    if let Some(status) = status {
        let total: u64 = status.iter().map(|s| s.routed).sum();
        let busiest = status.iter().map(|s| s.routed).max().unwrap_or(0);
        split.max_share = split.max_share.max(busiest as f64 / total.max(1) as f64);
    }
    Some(())
}

/// The traced run: fixed-rate windows with every boundary stamped,
/// untraced twins for the tracing overhead, and one traced burst for the
/// concurrency the worker pool reaches at saturation.
pub fn traced(topo: Topology, seed: u64, seconds: f64, work: &Path) -> Report {
    let mut report = Report::default();
    let mut split = Split::default();
    let (mut p50, mut p99, mut invalid) = (Vec::new(), Vec::new(), 0);
    let mut k = 0u64;
    let mut next = || {
        k += 1;
        k
    };
    // Half the run alternates traced and untraced windows; the rest
    // measures saturation and capacity.
    let windows = Deadline::after(seconds / 2.0);
    while p50.len() < 4 || !windows.passed() {
        let s = settings(seed, next(), FIXED_QPS, WINDOW_SECS);
        traced_sub_run(topo, &s, &mut split, &mut report);
        if let Some(run) = sub_run(topo, &s, Mode::Plain, work, &mut report) {
            let (run_p50, run_p99) = p50_p99_us(&run.out.result);
            p50.push(run_p50);
            p99.push(run_p99);
            invalid += usize::from(!run.out.result.is_valid());
        }
    }
    let (sat, peak) = capacity(topo, seed, seconds, &mut next, work, &mut report);
    // The burst contributes only its concurrency; its latencies are
    // queueing by design.
    let mut saturated = Split::default();
    let queries = ((seconds * BURST_QUERIES_PER_SECOND) as u64).max(2_000);
    traced_sub_run(
        topo,
        &burst_settings(seed, next(), queries),
        &mut saturated,
        &mut report,
    );

    // Untraced windows: the quieter quarter, since stalls of a shared host
    // inflate the rest by up to 5x from run to run.
    report.set("p50_us", quantile(&p50, QUIET_QUANTILE));
    report.set("p99_us", quantile(&p99, QUIET_QUANTILE));
    report.set("sat_qps", sat);
    report.set("peak_qps", peak);
    println!(
        "# {}: {} untraced windows at {FIXED_QPS} qps, {invalid} INVALID; window p99 quartiles (us): {:.0} {:.0} {:.0}",
        topo.name(),
        p99.len(),
        quantile(&p99, 0.25),
        median(&p99),
        quantile(&p99, 0.75)
    );

    let all = |f: fn(&Parts) -> f64| move |p: &Parts| Some(f(p));
    report.set(
        "core.realtime.dispatch_wait_us.p50",
        split.us(all(|p| p.wait), 0.5),
    );
    report.set(
        "core.realtime.dispatch_wait_us.p99",
        split.us(all(|p| p.wait), 0.99),
    );
    report.set(
        "core.realtime.in_flight.max",
        split.max_in_flight.max(saturated.max_in_flight) as f64,
    );
    report.set(
        "wire.client.call_us.p50",
        split.us(all(|p| p.client_call), 0.5),
    );
    report.set(
        "wire.client.call_us.p99",
        split.us(all(|p| p.client_call), 0.99),
    );
    report.set("wire.uplink_us.p50", split.us(|p| p.uplink, 0.5));
    report.set("wire.downlink_us.p50", split.us(|p| p.downlink, 0.5));
    report.set(
        "wire.server.queue_us.p50",
        split.queue.quantile(0.5) as f64 / 1e3,
    );
    report.set(
        "wire.frames_per_query",
        split.frames as f64 / split.queries.max(1) as f64,
    );
    report.set("wire.retries_failures", split.retries_failures as f64);
    report.set(
        "latency.residual_us.p50",
        split.us(all(|p| p.residual), 0.5),
    );
    report.set(
        "bench.trace_overhead_us.p50",
        median(&split.window_p50_us) - median(&p50),
    );
    if topo == Topology::Fleet {
        report.set(
            "sut.shard.route_ns.p50",
            split.us(all(|p| p.route()), 0.5) * 1e3,
        );
        report.set("sut.shard.max_share", split.max_share);
    }
    println!(
        "# {} traced: latency p50 {:.1} us = wait {:.1} + call {:.1} + residual {:.2} (medians)",
        topo.name(),
        split.us(all(|p| p.latency), 0.5),
        split.us(all(|p| p.wait), 0.5),
        split.us(all(|p| p.call), 0.5),
        split.us(all(|p| p.residual), 0.5),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_traced(topo: Topology) -> (Split, Report) {
        let mut split = Split::default();
        let mut report = Report::default();
        let s = settings(42, 1, 1_000.0, 0.3);
        traced_sub_run(topo, &s, &mut split, &mut report).expect("traced run completes");
        (split, report)
    }

    #[test]
    fn wire_parts_and_residual_sum_to_the_measured_latency() {
        let (split, report) = small_traced(Topology::Wire);
        assert!(report.problems.is_empty(), "{:?}", report.problems);
        assert_eq!(split.parts.len() as u64, report.attempted);
        for p in &split.parts {
            assert_eq!(p.wait + p.call + p.residual, p.latency, "{p:?}");
            assert!(p.wait >= 0.0 && p.residual >= 0.0, "{p:?}");
            assert_eq!(p.route(), 0.0);
            let service = p.client_call - p.uplink.unwrap() - p.downlink.unwrap();
            assert!(service >= 0.0, "{p:?}");
        }
        // The residual is the LoadGen's own completion bookkeeping.
        assert!(split.us(|p| Some(p.residual), 0.5) < 100.0);
        assert!(split.frames >= 2 * split.queries);
    }

    #[test]
    fn fleet_split_adds_the_router_between_loadgen_and_client() {
        let (split, report) = small_traced(Topology::Fleet);
        assert!(report.problems.is_empty(), "{:?}", report.problems);
        for p in &split.parts {
            assert_eq!(p.wait + p.call + p.residual, p.latency, "{p:?}");
            assert!(p.route() >= 0.0, "{p:?}");
        }
        assert!(split.max_share >= 0.5 && split.max_share <= 1.0);
    }
}
