//! The discrete-event simulated issue loop.
//!
//! Runs the full LoadGen rulebook against a [`SimSut`] under virtual time:
//! identical scheduling, seeding, recording, and validation logic as a
//! wall-clock run, but a 270,336-query server experiment completes in
//! milliseconds. This is what makes reproducing the paper's evaluation
//! tractable on a laptop (the original submissions ran for hours per result).
//!
//! Every simulated run is driven by one event queue (`EventQueue`). The
//! four scenarios, accuracy mode, replay, and journaled runs and their
//! resumes also share one run body; the multitenant merge
//! (`crate::multitenant`) has its own, over the same queue.

use crate::config::{TestMode, TestSettings};
use crate::instrument::Instruments;
use crate::journal::{
    settings_digest, Checkpoint, JournalConfig, JournaledRun, RunJournal, RunMeta,
};
use crate::qsl::QuerySampleLibrary;
use crate::query::{Query, QueryCompletion};
use crate::record::{LoggedResponse, QueryRecord, Recorder};
use crate::replay::ReplaySchedule;
use crate::results::{LatencyStats, ScenarioMetric, TestResult};
use crate::scenario::Scenario;
use crate::schedule::build_query;
use crate::sut::{SimSut, SutReaction};
use crate::time::Nanos;
use crate::validate::{check_run, overlatency_fraction, percentile_latency};
use crate::LoadGenError;
use mlperf_stats::dist::PoissonProcess;
use mlperf_stats::Rng64;
use mlperf_trace::profile_span;
use mlperf_trace::{MetricsRegistry, MetricsSnapshot, TimeSeriesSampler, TraceEvent, TraceSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Hard cap on processed events, guarding against runaway SUTs.
const MAX_EVENTS: u64 = 200_000_000;

/// Everything a run produces: the scored result plus raw logs.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The scored, validity-checked result.
    pub result: TestResult,
    /// Per-query records in issue order.
    pub records: Vec<QueryRecord>,
    /// Logged response payloads (all of them in accuracy mode; a sampled
    /// subset in performance mode when enabled).
    pub accuracy_log: Vec<LoggedResponse>,
    /// Counters and latency histograms gathered while tracing; `None` when
    /// the run used the no-op sink.
    pub metrics: Option<MetricsSnapshot>,
}

#[derive(Debug)]
pub(crate) enum EventKind {
    /// A scheduled query arrival of the given tenant (always 0 outside
    /// multitenant runs).
    Arrival(usize),
    Wakeup,
    Completion(QueryCompletion),
}

#[derive(Debug)]
pub(crate) struct Event {
    pub(crate) at: Nanos,
    order: u8,
    seq: u64,
    pub(crate) kind: EventKind,
}

impl Event {
    fn key(&self) -> (Nanos, u8, u64) {
        (self.at, self.order, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The simulated clock: a min-heap of events ordered by `(at, order, seq)`
/// — time, then arrivals before wakeups before completions, then push
/// order — plus the event budget, the time-series sampler advance, and the
/// checks on what an SUT reaction may schedule. Its methods are
/// `#[inline]` so they still inline into the run loops, which are
/// instantiated in the caller's crate for each SUT type.
pub(crate) struct EventQueue<'a> {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    popped: u64,
    sampler: Option<(&'a TimeSeriesSampler, &'a MetricsRegistry)>,
}

impl<'a> EventQueue<'a> {
    #[inline]
    pub(crate) fn new(
        sampler: Option<&'a TimeSeriesSampler>,
        metrics: Option<&'a MetricsRegistry>,
    ) -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            popped: 0,
            sampler: sampler.zip(metrics),
        }
    }

    #[inline]
    fn push(&mut self, at: Nanos, order: u8, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Reverse(Event {
            at,
            order,
            seq: self.seq,
            kind,
        }));
    }

    #[inline]
    pub(crate) fn schedule_arrival(&mut self, at: Nanos, tenant: usize) {
        self.push(at, 0, EventKind::Arrival(tenant));
    }

    /// The next event, or `None` once the queue is empty.
    #[inline]
    pub(crate) fn pop(&mut self) -> Result<Option<Event>, LoadGenError> {
        self.popped += 1;
        if self.popped > MAX_EVENTS {
            return Err(LoadGenError::SutProtocol(format!(
                "event budget of {MAX_EVENTS} exhausted; SUT appears to loop"
            )));
        }
        let event = self.heap.pop().map(|Reverse(e)| e);
        // Sample *before* the event is processed, so each row reflects the
        // state strictly before its boundary.
        if let (Some((sampler, metrics)), Some(event)) = (self.sampler, event.as_ref()) {
            sampler.advance_to(event.at.as_nanos(), metrics);
        }
        Ok(event)
    }

    /// Schedules what the SUT asked for at `now`: its completions, then
    /// its wakeup. Neither may lie in the past.
    #[inline]
    pub(crate) fn apply(&mut self, now: Nanos, reaction: SutReaction) -> Result<(), LoadGenError> {
        for completion in reaction.completions {
            if completion.finished_at < now {
                return Err(LoadGenError::SutProtocol(format!(
                    "query {} completion stamped {} in the past of {}",
                    completion.query_id, completion.finished_at, now
                )));
            }
            self.push(completion.finished_at, 2, EventKind::Completion(completion));
        }
        if let Some(at) = reaction.wakeup_at {
            if at < now {
                return Err(LoadGenError::SutProtocol(format!(
                    "wakeup requested at {at}, before now {now}"
                )));
            }
            self.push(at, 1, EventKind::Wakeup);
        }
        Ok(())
    }
}

struct Sim<'a, S: SimSut + ?Sized> {
    sut: &'a mut S,
    queue: EventQueue<'a>,
    recorder: Recorder,
    acc_rng: Rng64,
    log_probability: f64,
    sink: &'a dyn TraceSink,
    metrics: Option<&'a MetricsRegistry>,
}

impl<'a, S: SimSut + ?Sized> Sim<'a, S> {
    fn new(
        settings: &TestSettings,
        sut: &'a mut S,
        sink: &'a dyn TraceSink,
        metrics: Option<&'a MetricsRegistry>,
        sampler: Option<&'a TimeSeriesSampler>,
    ) -> Self {
        let log_probability = match settings.mode {
            TestMode::AccuracyOnly => 1.0,
            TestMode::PerformanceOnly => settings.accuracy_log_probability,
        };
        Self {
            sut,
            queue: EventQueue::new(sampler, metrics),
            recorder: Recorder::new(),
            acc_rng: Rng64::new(settings.seeds.accuracy_seed),
            log_probability,
            sink,
            metrics,
        }
    }

    fn issue(&mut self, query: Query) -> Result<(), LoadGenError> {
        profile_span!("loadgen/issue");
        let now = query.scheduled_at;
        self.recorder.record_issue(&query, now)?;
        if self.sink.enabled() {
            self.sink.record(
                now.as_nanos(),
                &TraceEvent::QueryIssued {
                    query_id: query.id,
                    sample_count: query.sample_count(),
                    // Simulated issue happens exactly on schedule.
                    delay_ns: 0,
                },
            );
        }
        if let Some(m) = self.metrics {
            m.incr("queries_issued", 1);
            m.incr("samples_issued", query.sample_count() as u64);
        }
        let reaction = self.sut.on_query(now, &query);
        if self.sink.enabled() {
            self.sink.record(
                now.as_nanos(),
                &TraceEvent::QuerySent { query_id: query.id },
            );
        }
        self.queue.apply(now, reaction)
    }

    fn wakeup(&mut self, now: Nanos) -> Result<(), LoadGenError> {
        profile_span!("loadgen/wakeup");
        let reaction = self.sut.on_wakeup(now);
        self.queue.apply(now, reaction)
    }

    /// Re-sends a checkpoint's outstanding query to the (reset) SUT
    /// without touching the recorder or the detail log: the issue already
    /// happened before the crash and is already recorded; only the SUT's
    /// side of it needs to run again.
    fn reissue(&mut self, query: Query) -> Result<(), LoadGenError> {
        let now = query.scheduled_at;
        // The resumed process's detail log starts empty, so the re-issue
        // is re-stamped: every completion the log will carry then has a
        // matching issue, keeping the TEST06 completeness audit green on
        // resumed logs.
        if self.sink.enabled() {
            self.sink.record(
                now.as_nanos(),
                &TraceEvent::QueryIssued {
                    query_id: query.id,
                    sample_count: query.sample_count(),
                    delay_ns: 0,
                },
            );
        }
        let reaction = self.sut.on_query(now, &query);
        self.queue.apply(now, reaction)
    }

    /// Restores the checkpointed recorder and accuracy RNG, then
    /// re-issues every outstanding query (id order) so their completions
    /// re-enter the event heap.
    fn restore(&mut self, cp: &Checkpoint) -> Result<(), LoadGenError> {
        self.acc_rng = Rng64::from_state(cp.acc_rng);
        let snapshot = cp.recorder.clone();
        let outstanding = snapshot.outstanding_queries();
        self.recorder = Recorder::restore(snapshot);
        for query in outstanding {
            self.reissue(query)?;
        }
        Ok(())
    }

    fn complete(&mut self, completion: &QueryCompletion) -> Result<(), LoadGenError> {
        profile_span!("loadgen/complete");
        let p = self.log_probability;
        let rng = &mut self.acc_rng;
        let logged_before = self.recorder.accuracy_log().len();
        let latency = self
            .recorder
            .record_completion(completion, |_| p > 0.0 && rng.next_bool(p))?;
        if self.sink.enabled() {
            if completion.error {
                self.sink.record(
                    completion.finished_at.as_nanos(),
                    &TraceEvent::QueryErrored {
                        query_id: completion.query_id,
                        latency_ns: latency.as_nanos(),
                    },
                );
            } else {
                self.sink.record(
                    completion.finished_at.as_nanos(),
                    &TraceEvent::QueryCompleted {
                        query_id: completion.query_id,
                        latency_ns: latency.as_nanos(),
                    },
                );
            }
            let logged = self.recorder.accuracy_log().len() - logged_before;
            if logged > 0 {
                self.sink.record(
                    completion.finished_at.as_nanos(),
                    &TraceEvent::AccuracyLogged {
                        query_id: completion.query_id,
                        samples: logged,
                    },
                );
            }
        }
        if let Some(m) = self.metrics {
            if completion.error {
                // Errored latencies stay out of the latency histogram: it
                // summarizes service behaviour, not failure timing.
                m.incr("queries_errored", 1);
            } else {
                m.incr("queries_completed", 1);
                m.incr("samples_completed", completion.samples.len() as u64);
                m.observe("query_latency_ns", latency.as_nanos());
            }
        }
        Ok(())
    }
}

/// Runs one benchmark under simulated time.
///
/// In performance mode the scenario's arrival rules apply; in accuracy mode
/// the entire data set is processed once and every response payload is
/// logged (Section IV-B).
///
/// # Errors
///
/// Returns [`LoadGenError`] for inconsistent settings, an unusable QSL, or
/// an SUT protocol violation (wrong ids, time travel, missing completions).
pub fn run_simulated<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    run_instrumented(settings, qsl, sut, &Instruments::none())
}

/// [`run_simulated`] with a trace sink attached.
///
/// Every lifecycle event of the run flows into `sink`; when the sink is
/// enabled a [`MetricsRegistry`] also rides along and its snapshot lands in
/// [`RunOutcome::metrics`]. With [`mlperf_trace::NoopSink`] the overhead is
/// one branch per event.
///
/// # Errors
///
/// Same contract as [`run_simulated`].
pub fn run_simulated_traced<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    sink: &dyn TraceSink,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    run_instrumented(settings, qsl, sut, &Instruments::traced(sink))
}

/// [`run_simulated`] with the full instrumentation bundle;
/// [`run_simulated`] and [`run_simulated_traced`] are thin wrappers over it.
///
/// Beyond the PR 1 tracing contract, `instruments` may attach a
/// [`TimeSeriesSampler`] — snapshotted once per crossed interval boundary
/// as simulated time advances, then flushed to the final run duration —
/// and/or a caller-owned [`MetricsRegistry`] shared with device engines;
/// when a registry is active (owned or supplied) its snapshot lands in
/// [`RunOutcome::metrics`].
///
/// # Errors
///
/// Same contract as [`run_simulated`].
pub fn run_instrumented<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    instruments: &Instruments<'_>,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    run_sim(settings, qsl, sut, instruments, None, None).map(unhalted)
}

/// Runs a fresh crash-safe benchmark: identical to [`run_instrumented`],
/// plus a durable run journal at `cfg.path` capturing a [`Checkpoint`]
/// every `cfg.checkpoint_every` issued queries. A process killed mid-run
/// leaves a journal [`resume_journaled`] can continue from.
///
/// Journaled runs support the server and offline scenarios in performance
/// mode — the completion-driven scenarios (single-/multi-stream) have no
/// issue boundary independent of the SUT to checkpoint at.
///
/// # Errors
///
/// [`LoadGenError::Journal`] on journal I/O failure, plus the
/// [`run_simulated`] contract.
pub fn run_journaled<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    instruments: &Instruments<'_>,
    cfg: &JournalConfig,
) -> Result<JournaledRun, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    run_sim(settings, qsl, sut, instruments, None, Some((cfg, false)))
}

/// Resumes a crash-interrupted run from its journal: rolls back to the
/// last complete checkpoint (a torn tail is truncated), restores the
/// scenario cursor, RNG streams, and recorder, re-issues the queries that
/// were outstanding at the checkpoint, and continues the run — appending
/// further checkpoints to the same journal.
///
/// The resumed run's *logical* detail log (ids, schedule, sample counts,
/// error flags) is identical to an uninterrupted run's whenever the SUT's
/// per-query outcome is a function of the query alone; post-crash
/// latencies are re-derived against the reset SUT and may differ for
/// stateful (queueing) SUTs.
///
/// # Errors
///
/// [`LoadGenError::Journal`] when the journal is unreadable or belongs to
/// a different run (settings/QSL digest mismatch), plus the
/// [`run_simulated`] contract.
pub fn resume_journaled<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    instruments: &Instruments<'_>,
    cfg: &JournalConfig,
) -> Result<JournaledRun, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    run_sim(settings, qsl, sut, instruments, None, Some((cfg, true)))
}

/// The outcome of a run that has no journal, and so cannot halt.
pub(crate) fn unhalted(run: JournaledRun) -> RunOutcome {
    run.finished().expect("only a journaled run halts")
}

/// The one simulated run body. `replay` swaps the performance-mode
/// arrival process for a recorded schedule (`crate::replay`); `journal`
/// attaches a run journal as `(config, resume)`. Everything else —
/// seeding, recording, validation, scoring — is shared, and only a
/// journaled run can come back [`JournaledRun::Halted`].
pub(crate) fn run_sim<Q, S>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: &mut S,
    instruments: &Instruments<'_>,
    replay: Option<&ReplaySchedule>,
    journal: Option<(&JournalConfig, bool)>,
) -> Result<JournaledRun, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    profile_span!("loadgen/run");
    let sink = instruments.sink;
    settings.validate()?;
    if journal.is_some()
        && !(settings.mode == TestMode::PerformanceOnly
            && matches!(settings.scenario, Scenario::Server | Scenario::Offline))
    {
        return Err(LoadGenError::BadSettings(format!(
            "journaled runs support the server and offline scenarios in performance mode, not {}",
            settings.scenario
        )));
    }
    sut.reset();
    let loaded = {
        profile_span!("loadgen/load_samples");
        load_samples(settings, qsl)?
    };
    let population = loaded.len();
    let (mut tap, restored) = match journal {
        Some((cfg, resume)) => {
            let (journal, restored) = attach_journal(settings, population, cfg, resume)?;
            (Some(JournalTap { journal, cfg }), restored)
        }
        None => (None, None),
    };
    let resumed = restored.is_some();

    let own_registry =
        (instruments.metrics.is_none() && instruments.wants_metrics()).then(MetricsRegistry::new);
    let registry = instruments.metrics.or(own_registry.as_ref());
    record_start(sink, settings, resumed);
    let mut sim = Sim::new(settings, sut, sink, registry, instruments.sampler);
    if let Some(cp) = &restored {
        sim.restore(cp)?;
    }
    let halted = {
        profile_span!("loadgen/event_loop");
        match (settings.mode, replay) {
            // Accuracy mode goes through the entire data set, once, as one
            // batch.
            (TestMode::AccuracyOnly, _) => run_batch(&mut sim, &loaded, [0; 4], &mut tap, false)?,
            (TestMode::PerformanceOnly, Some(schedule)) => {
                run_replay(schedule, population, &mut sim)?;
                false
            }
            (TestMode::PerformanceOnly, None) => match settings.scenario {
                Scenario::SingleStream => {
                    run_single_stream(settings, population, &mut sim)?;
                    false
                }
                Scenario::MultiStream => {
                    run_multi_stream(settings, population, &mut sim)?;
                    false
                }
                Scenario::Server => {
                    let mut cursor = match &restored {
                        Some(cp) => ServerCursor::restore(settings, cp)?,
                        None => ServerCursor::fresh(settings)?,
                    };
                    run_server(settings, population, &mut sim, &mut cursor, &mut tap)?
                }
                Scenario::Offline => {
                    let mut qsl_rng = Rng64::new(settings.seeds.qsl_seed);
                    let count = settings.offline_min_sample_count as usize;
                    let indices = qsl_rng.sample_with_replacement(population, count);
                    run_batch(&mut sim, &indices, qsl_rng.state(), &mut tap, resumed)?
                }
            },
        }
    };

    qsl.unload_samples(&loaded);
    if let Some(tap) = &mut tap {
        if halted {
            sink.flush();
            return Ok(tap.journal.halted(tap.cfg));
        }
        tap.journal.sync()?;
    }
    let recorder = std::mem::take(&mut sim.recorder);
    let outcome = {
        profile_span!("loadgen/score");
        finish_run(settings, sut.name(), qsl.name(), recorder, sink, registry)
    };
    if let (Some(sampler), Some(registry)) = (instruments.sampler, registry) {
        sampler.finish(outcome.result.duration.as_nanos(), registry);
    }
    sink.flush();
    Ok(JournaledRun::Finished(Box::new(outcome)))
}

/// Checks that the QSL has samples, then loads the ones the mode reads
/// (untimed, Figure 3 steps 1-4): the performance set, or the whole data
/// set in accuracy mode. Returns the loaded indices. Shared by both
/// clocks.
pub(crate) fn load_samples<Q: QuerySampleLibrary + ?Sized>(
    settings: &TestSettings,
    qsl: &mut Q,
) -> Result<Vec<usize>, LoadGenError> {
    if qsl.total_sample_count() == 0 || qsl.performance_sample_count() == 0 {
        return Err(LoadGenError::BadQsl(format!(
            "QSL {} has no samples",
            qsl.name()
        )));
    }
    let loaded: Vec<usize> = match settings.mode {
        TestMode::PerformanceOnly => (0..qsl.performance_sample_count()).collect(),
        TestMode::AccuracyOnly => (0..qsl.total_sample_count()).collect(),
    };
    qsl.load_samples(&loaded);
    Ok(loaded)
}

/// Creates a run journal, or reopens one and returns the checkpoint to
/// resume from. Shared by both clocks.
pub(crate) fn attach_journal(
    settings: &TestSettings,
    population: usize,
    cfg: &JournalConfig,
    resume: bool,
) -> Result<(RunJournal, Option<Checkpoint>), LoadGenError> {
    let meta = RunMeta {
        scenario: settings.scenario.to_string(),
        digest: settings_digest(settings, population as u64),
        qsl_size: population as u64,
    };
    RunJournal::attach(cfg, &meta, resume)
}

/// Opens the detail log: the `issue` phase, or `resume` when the run
/// continues from a checkpoint. Shared by both clocks.
pub(crate) fn record_start(sink: &dyn TraceSink, settings: &TestSettings, resumed: bool) {
    if sink.enabled() {
        sink.record(
            0,
            &TraceEvent::RunPhase {
                phase: if resumed { "resume" } else { "issue" }.into(),
                scenario: settings.scenario.to_string(),
            },
        );
    }
}

/// Scores a finished run: metric, latency stats, and validity checks.
/// Shared by the simulated and realtime issue loops.
pub(crate) fn finish_run(
    settings: &TestSettings,
    sut_name: &str,
    qsl_name: &str,
    recorder: Recorder,
    sink: &dyn TraceSink,
    metrics: Option<&MetricsRegistry>,
) -> RunOutcome {
    let outstanding = recorder.outstanding() as u64;
    let duration = recorder.last_completion();
    let (records, accuracy_log) = recorder.into_parts();
    let validity = match settings.mode {
        TestMode::PerformanceOnly => check_run(settings, &records, duration, outstanding),
        TestMode::AccuracyOnly => Vec::new(),
    };
    if sink.enabled() {
        sink.record(
            duration.as_nanos(),
            &TraceEvent::RunPhase {
                phase: "report".into(),
                scenario: settings.scenario.to_string(),
            },
        );
        for issue in &validity {
            sink.record(
                duration.as_nanos(),
                &TraceEvent::ValidityCheckFailed {
                    issue: issue.to_string(),
                },
            );
        }
    }
    let samples_completed: u64 = records
        .iter()
        .filter(|r| r.completed_at.is_some() && !r.error)
        .map(|r| r.sample_count as u64)
        .sum();
    let error_count = records.iter().filter(|r| r.error).count() as u64;
    let metric = compute_metric(settings, &records, duration, samples_completed);
    let latencies: Vec<Nanos> = records.iter().filter_map(QueryRecord::latency).collect();
    let result = TestResult {
        sut_name: sut_name.to_string(),
        qsl_name: qsl_name.to_string(),
        scenario: settings.scenario,
        performance_mode: matches!(settings.mode, TestMode::PerformanceOnly),
        metric,
        latency_stats: LatencyStats::from_latencies(&latencies),
        query_count: records.len() as u64,
        error_count,
        sample_count: samples_completed,
        duration,
        validity,
    };
    let metrics = metrics.map(|m| {
        m.incr("validity_issues", result.validity.len() as u64);
        m.set_gauge("metric_score", result.metric.score());
        m.set_gauge("duration_secs", duration.as_secs_f64());
        m.snapshot()
    });
    RunOutcome {
        result,
        records,
        accuracy_log,
        metrics,
    }
}

fn compute_metric(
    settings: &TestSettings,
    records: &[QueryRecord],
    duration: Nanos,
    samples_completed: u64,
) -> ScenarioMetric {
    match settings.scenario {
        Scenario::SingleStream => ScenarioMetric::SingleStream {
            p90_latency: percentile_latency(records, 0.90).unwrap_or(Nanos::MAX),
        },
        Scenario::MultiStream => {
            let skippers = records.iter().filter(|r| r.skipped_intervals > 0).count();
            ScenarioMetric::MultiStream {
                streams: settings.samples_per_query,
                skip_fraction: if records.is_empty() {
                    0.0
                } else {
                    skippers as f64 / records.len() as f64
                },
            }
        }
        Scenario::Server => ScenarioMetric::Server {
            qps: settings.server_target_qps,
            overlatency_fraction: overlatency_fraction(records, settings.target_latency),
        },
        Scenario::Offline => ScenarioMetric::Offline {
            samples_per_second: if duration == Nanos::ZERO {
                0.0
            } else {
                samples_completed as f64 / duration.as_secs_f64()
            },
        },
    }
}

/// Drains every remaining event; used once no further queries will issue.
fn drain<S: SimSut + ?Sized>(sim: &mut Sim<'_, S>) -> Result<(), LoadGenError> {
    while let Some(event) = sim.queue.pop()? {
        match event.kind {
            EventKind::Arrival(_) => {
                return Err(LoadGenError::SutProtocol(
                    "arrival event in drain phase".into(),
                ))
            }
            EventKind::Wakeup => sim.wakeup(event.at)?,
            EventKind::Completion(c) => sim.complete(&c)?,
        }
    }
    Ok(())
}

fn run_single_stream<S: SimSut + ?Sized>(
    settings: &TestSettings,
    population: usize,
    sim: &mut Sim<'_, S>,
) -> Result<(), LoadGenError> {
    let mut qsl_rng = Rng64::new(settings.seeds.qsl_seed);
    let mut next_sample_id = 0u64;
    let mut issued = 0u64;
    let issue_at = |sim: &mut Sim<'_, S>,
                    issued: &mut u64,
                    next_sample_id: &mut u64,
                    rng: &mut Rng64,
                    at: Nanos|
     -> Result<(), LoadGenError> {
        let indices = rng.sample_with_replacement(population, settings.samples_per_query);
        let query = build_query(*issued, next_sample_id, &indices, at);
        *issued += 1;
        sim.issue(query)
    };
    issue_at(
        sim,
        &mut issued,
        &mut next_sample_id,
        &mut qsl_rng,
        Nanos::ZERO,
    )?;
    while let Some(event) = sim.queue.pop()? {
        match event.kind {
            EventKind::Arrival(_) => unreachable!("single-stream issues on completion"),
            EventKind::Wakeup => sim.wakeup(event.at)?,
            EventKind::Completion(c) => {
                let now = c.finished_at;
                sim.complete(&c)?;
                if issued < settings.min_query_count || now < settings.min_duration {
                    issue_at(sim, &mut issued, &mut next_sample_id, &mut qsl_rng, now)?;
                }
            }
        }
    }
    Ok(())
}

/// The server scenario's resumable issue cursor: everything the arrival
/// loop mutates, in a shape a [`Checkpoint`] can capture and restore.
pub(crate) struct ServerCursor {
    pub(crate) qsl_rng: Rng64,
    pub(crate) arrivals: PoissonProcess,
    pub(crate) next_sample_id: u64,
    pub(crate) issued: u64,
    pub(crate) pending_arrival: Option<Nanos>,
}

impl ServerCursor {
    pub(crate) fn fresh(settings: &TestSettings) -> Result<Self, LoadGenError> {
        let mut arrivals = PoissonProcess::new(
            settings.server_target_qps,
            Rng64::new(settings.seeds.schedule_seed),
        )
        .map_err(|e| LoadGenError::BadSettings(e.to_string()))?;
        let first = Nanos::from_secs_f64(arrivals.next().expect("poisson process is infinite"));
        Ok(Self {
            qsl_rng: Rng64::new(settings.seeds.qsl_seed),
            arrivals,
            next_sample_id: 0,
            issued: 0,
            pending_arrival: Some(first),
        })
    }

    pub(crate) fn restore(settings: &TestSettings, cp: &Checkpoint) -> Result<Self, LoadGenError> {
        let arrivals = PoissonProcess::resume(
            settings.server_target_qps,
            cp.sched_rng,
            f64::from_bits(cp.sched_now_bits),
        )
        .map_err(|e| LoadGenError::BadSettings(e.to_string()))?;
        Ok(Self {
            qsl_rng: Rng64::from_state(cp.qsl_rng),
            arrivals,
            next_sample_id: cp.next_sample_id,
            issued: cp.issued,
            pending_arrival: cp.pending_arrival,
        })
    }

    pub(crate) fn next_arrival(&mut self) -> Nanos {
        Nanos::from_secs_f64(self.arrivals.next().expect("poisson process is infinite"))
    }
}

/// The one server-scenario event loop, shared by plain and journaled runs.
/// With a journal tap attached, a checkpoint is captured every
/// `checkpoint_every` issued queries; returns `true` when the tap's armed
/// halt fired (the run stops at that boundary, as a killed process would).
fn run_server<S: SimSut + ?Sized>(
    settings: &TestSettings,
    population: usize,
    sim: &mut Sim<'_, S>,
    cursor: &mut ServerCursor,
    journal: &mut Option<JournalTap<'_>>,
) -> Result<bool, LoadGenError> {
    if let Some(at) = cursor.pending_arrival {
        sim.queue.schedule_arrival(at, 0);
    }
    while let Some(event) = sim.queue.pop()? {
        match event.kind {
            EventKind::Arrival(_) => {
                let at = cursor
                    .pending_arrival
                    .take()
                    .expect("arrival event without pending arrival");
                debug_assert_eq!(at, event.at);
                let indices = cursor
                    .qsl_rng
                    .sample_with_replacement(population, settings.samples_per_query);
                let query = build_query(cursor.issued, &mut cursor.next_sample_id, &indices, at);
                cursor.issued += 1;
                sim.issue(query)?;
                let next = cursor.next_arrival();
                // Stop issuing once both Table V count and 60-s duration are
                // satisfied.
                if cursor.issued < settings.min_query_count || next < settings.min_duration {
                    cursor.pending_arrival = Some(next);
                    sim.queue.schedule_arrival(next, 0);
                }
                if let Some(tap) = journal.as_mut() {
                    if cursor.issued.is_multiple_of(tap.cfg.checkpoint_every) {
                        let sched = cursor.arrivals.state();
                        let halted = tap.capture(
                            sim,
                            cursor.issued,
                            cursor.next_sample_id,
                            at,
                            cursor.pending_arrival,
                            cursor.qsl_rng.state(),
                            sched,
                        )?;
                        if halted {
                            return Ok(true);
                        }
                    }
                }
            }
            EventKind::Wakeup => sim.wakeup(event.at)?,
            EventKind::Completion(c) => sim.complete(&c)?,
        }
    }
    Ok(false)
}

fn run_multi_stream<S: SimSut + ?Sized>(
    settings: &TestSettings,
    population: usize,
    sim: &mut Sim<'_, S>,
) -> Result<(), LoadGenError> {
    let interval = settings.multistream_arrival_interval;
    let mut qsl_rng = Rng64::new(settings.seeds.qsl_seed);
    let mut next_sample_id = 0u64;
    let mut issued = 0u64;
    let issue = |sim: &mut Sim<'_, S>,
                 issued: &mut u64,
                 next_sample_id: &mut u64,
                 rng: &mut Rng64,
                 at: Nanos|
     -> Result<u64, LoadGenError> {
        let indices = rng.sample_with_replacement(population, settings.samples_per_query);
        let id = *issued;
        let query = build_query(id, next_sample_id, &indices, at);
        *issued += 1;
        sim.issue(query)?;
        Ok(id)
    };
    // (query id, issue boundary) of the in-flight query.
    let mut in_flight: Option<(u64, Nanos)> = Some((
        issue(
            sim,
            &mut issued,
            &mut next_sample_id,
            &mut qsl_rng,
            Nanos::ZERO,
        )?,
        Nanos::ZERO,
    ));
    while let Some(event) = sim.queue.pop()? {
        match event.kind {
            EventKind::Arrival(_) => {
                let at = event.at;
                in_flight = Some((
                    issue(sim, &mut issued, &mut next_sample_id, &mut qsl_rng, at)?,
                    at,
                ));
            }
            EventKind::Wakeup => sim.wakeup(event.at)?,
            EventKind::Completion(c) => {
                let finished = c.finished_at;
                sim.complete(&c)?;
                if let Some((id, boundary)) = in_flight.take() {
                    if c.query_id != id {
                        return Err(LoadGenError::SutProtocol(format!(
                            "multistream completion for query {} while {} in flight",
                            c.query_id, id
                        )));
                    }
                    // Intervals consumed by this query; every one beyond the
                    // first was skipped and delays the remaining queries.
                    let elapsed = finished.saturating_sub(boundary).as_nanos();
                    let consumed = elapsed.div_ceil(interval.as_nanos()).max(1);
                    let skips = (consumed - 1) as u32;
                    if skips > 0 {
                        sim.recorder.record_skips(id, skips);
                        if sim.sink.enabled() {
                            sim.sink.record(
                                finished.as_nanos(),
                                &TraceEvent::OverloadDropped {
                                    query_id: id,
                                    intervals: u64::from(skips),
                                },
                            );
                        }
                        if let Some(m) = sim.metrics {
                            m.incr("skipped_intervals", u64::from(skips));
                        }
                    }
                    let next_boundary = boundary + interval.mul(consumed);
                    if issued < settings.min_query_count || next_boundary < settings.min_duration {
                        sim.queue.schedule_arrival(next_boundary, 0);
                    }
                }
            }
        }
    }
    Ok(())
}

/// The journal attachment a journaled run threads through its issue loop.
struct JournalTap<'a> {
    journal: RunJournal,
    cfg: &'a JournalConfig,
}

impl JournalTap<'_> {
    /// Captures one checkpoint; returns `true` when the config's armed
    /// halt fired at this boundary (clean or torn, per `torn_halt`).
    #[allow(clippy::too_many_arguments)]
    fn capture<S: SimSut + ?Sized>(
        &mut self,
        sim: &Sim<'_, S>,
        issued: u64,
        next_sample_id: u64,
        wall: Nanos,
        pending_arrival: Option<Nanos>,
        qsl_rng: [u64; 4],
        sched: ([u64; 4], f64),
    ) -> Result<bool, LoadGenError> {
        let seq = self.journal.checkpoints;
        let epoch = self
            .cfg
            .epoch_source
            .as_ref()
            .map_or(0, |e| e.load(std::sync::atomic::Ordering::SeqCst));
        let (records_from, accuracy_from) = self.journal.flushed_marks();
        let cp = Checkpoint {
            seq,
            issued,
            next_sample_id,
            wall,
            pending_arrival,
            qsl_rng,
            sched_rng: sched.0,
            sched_now_bits: sched.1.to_bits(),
            acc_rng: sim.acc_rng.state(),
            epoch,
            recorder: sim.recorder.snapshot_suffix(records_from, accuracy_from),
        };
        self.journal.append_checkpoint(self.cfg, &cp)
    }
}

/// Re-issues a recorded schedule: explicit arrival times and explicit
/// per-query sample indices, open loop. The scenario's generative rules
/// are bypassed — the schedule *is* the run — but recording, validity
/// checks, and scoring still follow `settings.scenario`.
fn run_replay<S: SimSut + ?Sized>(
    schedule: &ReplaySchedule,
    population: usize,
    sim: &mut Sim<'_, S>,
) -> Result<(), LoadGenError> {
    let mut next_sample_id = 0u64;
    let mut next = 0usize;
    if schedule.arrivals.is_empty() {
        return Ok(());
    }
    sim.queue.schedule_arrival(schedule.arrivals[0], 0);
    while let Some(event) = sim.queue.pop()? {
        match event.kind {
            EventKind::Arrival(_) => {
                let at = schedule.arrivals[next];
                debug_assert_eq!(at, event.at);
                // A recorded trace may index a larger QSL than the one it
                // replays against; fold indices into the population rather
                // than rejecting the run.
                let indices: Vec<usize> = schedule.indices[next]
                    .iter()
                    .map(|&i| i % population)
                    .collect();
                let query = build_query(next as u64, &mut next_sample_id, &indices, at);
                next += 1;
                sim.issue(query)?;
                if next < schedule.arrivals.len() {
                    sim.queue.schedule_arrival(schedule.arrivals[next], 0);
                }
            }
            EventKind::Wakeup => sim.wakeup(event.at)?,
            EventKind::Completion(c) => sim.complete(&c)?,
        }
    }
    Ok(())
}

/// One batch query over `indices` at time zero, then the completion
/// drain: the offline scenario and accuracy mode. With a journal tap, one
/// checkpoint (carrying `qsl_rng`, the sampling state after the draw)
/// follows the issue; a `resumed` run skips the issue — the restore
/// re-sent the outstanding query — and goes straight to the drain. Returns
/// `true` when the tap's armed halt fired.
fn run_batch<S: SimSut + ?Sized>(
    sim: &mut Sim<'_, S>,
    indices: &[usize],
    qsl_rng: [u64; 4],
    journal: &mut Option<JournalTap<'_>>,
    resumed: bool,
) -> Result<bool, LoadGenError> {
    if !resumed {
        let mut next_sample_id = 0u64;
        sim.issue(build_query(0, &mut next_sample_id, indices, Nanos::ZERO))?;
        if let Some(tap) = journal {
            let sched = ([0u64; 4], 0.0);
            if tap.capture(sim, 1, next_sample_id, Nanos::ZERO, None, qsl_rng, sched)? {
                return Ok(true);
            }
        }
    }
    drain(sim)?;
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsl::MemoryQsl;
    use crate::sut::FixedLatencySut;

    fn small(settings: TestSettings) -> TestSettings {
        settings
            .with_min_duration(Nanos::from_millis(1))
            .with_min_query_count(64)
    }

    #[test]
    fn metrics_histogram_agrees_with_results_percentiles() {
        use mlperf_trace::RingBufferSink;
        // A queueing server run: Poisson arrivals against a serial SUT at
        // ~60% utilization spread completion latencies over a wide range, so
        // the log-bucketed histogram and the exact percentile selection in
        // results.rs are compared on a non-trivial distribution.
        let settings = TestSettings::server(2_000.0, Nanos::from_millis(50))
            .with_min_query_count(2_000)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(300));
        let sink = RingBufferSink::unbounded();
        let out = run_simulated_traced(&settings, &mut qsl, &mut sut, &sink).unwrap();
        let metrics = out.metrics.expect("traced run snapshots metrics");
        let h = metrics.histogram("query_latency_ns").expect("histogram");
        assert_eq!(h.count(), out.result.query_count);
        let stats = out.result.latency_stats.expect("per-query latencies");
        for (q, exact) in [
            (0.50, stats.p50),
            (0.90, stats.p90),
            (0.97, stats.p97),
            (0.99, stats.p99),
        ] {
            let approx = h.quantile(q);
            let width = h.quantile_resolution(q);
            // Both sides use nearest-rank selection, so the exact percentile
            // falls inside the bucket whose upper bound the histogram
            // reports: within one bucket width.
            assert!(
                approx >= exact.as_nanos() && approx - exact.as_nanos() <= width,
                "q={q}: histogram {approx} vs exact {exact} (bucket width {width})"
            );
        }
    }

    #[test]
    fn single_stream_counts_and_metric() {
        let settings = small(TestSettings::single_stream());
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        assert_eq!(out.result.query_count, 64);
        match out.result.metric {
            ScenarioMetric::SingleStream { p90_latency } => {
                assert_eq!(p90_latency, Nanos::from_micros(100));
            }
            ref m => panic!("wrong metric {m:?}"),
        }
        // Sequential: duration = 64 * 100us.
        assert_eq!(out.result.duration, Nanos::from_micros(6_400));
    }

    #[test]
    fn single_stream_runs_until_min_duration() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(1)
            .with_min_duration(Nanos::from_millis(5));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.duration >= Nanos::from_millis(5));
        assert_eq!(out.result.query_count, 50);
    }

    #[test]
    fn server_meets_bound_when_fast() {
        let settings =
            small(TestSettings::server(1_000.0, Nanos::from_millis(10))).with_min_query_count(500);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        // Service 50us at 1000 qps: utilization 5%, no queueing to speak of.
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(50));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        match out.result.metric {
            ScenarioMetric::Server {
                qps,
                overlatency_fraction,
            } => {
                assert_eq!(qps, 1_000.0);
                assert!(overlatency_fraction < 0.01);
            }
            ref m => panic!("wrong metric {m:?}"),
        }
    }

    #[test]
    fn server_overloaded_is_invalid() {
        // Service 2ms at 1000 qps: rho = 2, queue diverges, p99 blows up.
        let settings =
            small(TestSettings::server(1_000.0, Nanos::from_millis(10))).with_min_query_count(500);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(2));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(!out.result.is_valid());
    }

    #[test]
    fn multistream_no_skips_when_fast() {
        let settings = small(TestSettings::multi_stream(4, Nanos::from_millis(50)));
        let mut qsl = MemoryQsl::new("q", 32, 32);
        // 4 samples * 1ms = 4ms per 50ms interval.
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(1));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        match out.result.metric {
            ScenarioMetric::MultiStream {
                streams,
                skip_fraction,
            } => {
                assert_eq!(streams, 4);
                assert_eq!(skip_fraction, 0.0);
            }
            ref m => panic!("wrong metric {m:?}"),
        }
        // Queries pace at exactly one interval.
        assert_eq!(
            out.records[1].scheduled_at,
            Nanos::from_millis(50),
            "second query at the second boundary"
        );
    }

    #[test]
    fn multistream_slow_sut_skips_intervals() {
        let settings = small(TestSettings::multi_stream(4, Nanos::from_millis(50)));
        let mut qsl = MemoryQsl::new("q", 32, 32);
        // 4 * 30ms = 120ms per query: overruns two intervals every time.
        let mut sut = FixedLatencySut::new("s", Nanos::from_millis(30));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(!out.result.is_valid());
        assert!(out.records.iter().all(|r| r.skipped_intervals == 2));
        // Next query lands on the delayed boundary: 150ms.
        assert_eq!(out.records[1].scheduled_at, Nanos::from_millis(150));
    }

    #[test]
    fn offline_throughput() {
        let settings = TestSettings::offline()
            .with_min_duration(Nanos::from_millis(1))
            .with_offline_min_sample_count(1_000);
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        match out.result.metric {
            ScenarioMetric::Offline { samples_per_second } => {
                // 1000 samples * 10us = 10ms -> 100k samples/s.
                assert!((samples_per_second - 100_000.0).abs() < 1.0);
            }
            ref m => panic!("wrong metric {m:?}"),
        }
        assert_eq!(out.result.sample_count, 1_000);
    }

    #[test]
    fn accuracy_mode_covers_dataset_and_logs_everything() {
        let settings = TestSettings::offline().with_mode(TestMode::AccuracyOnly);
        let mut qsl = MemoryQsl::new("q", 200, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(1)).with_class_payloads(7);
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        assert_eq!(out.accuracy_log.len(), 200);
        // Every dataset index present exactly once.
        let mut seen: Vec<usize> = out.accuracy_log.iter().map(|l| l.sample_index).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
        assert!(out.result.is_valid());
        assert!(!out.result.performance_mode);
    }

    #[test]
    fn performance_mode_samples_accuracy_log() {
        let settings = small(TestSettings::single_stream())
            .with_min_query_count(500)
            .with_accuracy_log_probability(0.1);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10)).with_class_payloads(3);
        let out = run_simulated(&settings, &mut qsl, &mut sut).unwrap();
        let logged = out.accuracy_log.len();
        assert!((20..120).contains(&logged), "logged={logged}");
    }

    fn journal_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "mlperf_des_journal_{}_{name}.mlpj",
            std::process::id()
        ));
        p
    }

    #[test]
    fn journaled_run_without_halt_matches_plain_run() {
        let settings =
            small(TestSettings::server(2_000.0, Nanos::from_millis(10))).with_min_query_count(60);
        let plain = {
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            run_simulated(&settings, &mut qsl, &mut sut).unwrap()
        };
        let path = journal_path("no_halt");
        let cfg = JournalConfig::new(&path).with_checkpoint_every(8);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        let out = run_journaled(&settings, &mut qsl, &mut sut, &Instruments::none(), &cfg)
            .unwrap()
            .finished()
            .expect("no halt armed");
        assert_eq!(out.records, plain.records);
        assert_eq!(out.result, plain.result);
        let loaded = crate::journal::load_run_journal(&path).unwrap();
        assert!(
            loaded.checkpoints >= 3,
            "{} checkpoints",
            loaded.checkpoints
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn server_resume_at_every_checkpoint_matches_uninterrupted() {
        let settings =
            small(TestSettings::server(2_000.0, Nanos::from_millis(10))).with_min_query_count(60);
        let baseline = {
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            run_simulated(&settings, &mut qsl, &mut sut).unwrap()
        };
        // Discover how many checkpoints a full run writes.
        let path = journal_path("server_sweep");
        let cfg = JournalConfig::new(&path).with_checkpoint_every(8);
        {
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            run_journaled(&settings, &mut qsl, &mut sut, &Instruments::none(), &cfg).unwrap();
        }
        let total = crate::journal::load_run_journal(&path).unwrap().checkpoints;
        assert!(total >= 3, "need a real sweep, got {total} checkpoints");
        // Kill at every checkpoint boundary, resume, and demand the exact
        // uninterrupted records (the stateless SUT re-derives identical
        // latencies too).
        for kill_at in 0..total {
            let halt_cfg = cfg.clone().with_halt_after(kill_at);
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            match run_journaled(
                &settings,
                &mut qsl,
                &mut sut,
                &Instruments::none(),
                &halt_cfg,
            )
            .unwrap()
            {
                JournaledRun::Halted { checkpoint } => assert_eq!(checkpoint, kill_at),
                JournaledRun::Finished(_) => panic!("halt {kill_at} did not fire"),
            }
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            let out = resume_journaled(&settings, &mut qsl, &mut sut, &Instruments::none(), &cfg)
                .unwrap()
                .finished()
                .expect("resume runs to completion");
            assert_eq!(
                out.records, baseline.records,
                "kill at checkpoint {kill_at}"
            );
            assert_eq!(out.result, baseline.result, "kill at checkpoint {kill_at}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn server_resume_survives_torn_checkpoint() {
        let settings =
            small(TestSettings::server(2_000.0, Nanos::from_millis(10))).with_min_query_count(60);
        let baseline = {
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            run_simulated(&settings, &mut qsl, &mut sut).unwrap()
        };
        let path = journal_path("torn");
        let cfg = JournalConfig::new(&path).with_checkpoint_every(8);
        // Kill *during* the write of checkpoint 2: the frame tears, resume
        // must roll back to checkpoint 1 and still converge.
        let halt_cfg = cfg.clone().with_halt_after(2).with_torn_halt();
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        run_journaled(
            &settings,
            &mut qsl,
            &mut sut,
            &Instruments::none(),
            &halt_cfg,
        )
        .unwrap();
        let loaded = crate::journal::load_run_journal(&path).unwrap();
        assert!(loaded.torn.is_some(), "torn halt must leave a torn tail");
        assert_eq!(loaded.checkpoints, 2);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        let out = resume_journaled(&settings, &mut qsl, &mut sut, &Instruments::none(), &cfg)
            .unwrap()
            .finished()
            .expect("resume after tear");
        assert_eq!(out.records, baseline.records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn offline_resume_after_checkpoint_matches() {
        let settings = TestSettings::offline()
            .with_min_duration(Nanos::from_millis(1))
            .with_offline_min_sample_count(500);
        let baseline = {
            let mut qsl = MemoryQsl::new("q", 64, 64);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
            run_simulated(&settings, &mut qsl, &mut sut).unwrap()
        };
        let path = journal_path("offline");
        let cfg = JournalConfig::new(&path);
        let halt_cfg = cfg.clone().with_halt_after(0);
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        match run_journaled(
            &settings,
            &mut qsl,
            &mut sut,
            &Instruments::none(),
            &halt_cfg,
        )
        .unwrap()
        {
            JournaledRun::Halted { checkpoint } => assert_eq!(checkpoint, 0),
            JournaledRun::Finished(_) => panic!("halt did not fire"),
        }
        let mut qsl = MemoryQsl::new("q", 64, 64);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        let out = resume_journaled(&settings, &mut qsl, &mut sut, &Instruments::none(), &cfg)
            .unwrap()
            .finished()
            .expect("offline resume");
        assert_eq!(out.records, baseline.records);
        assert_eq!(out.result, baseline.result);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_foreign_journal() {
        let settings =
            small(TestSettings::server(2_000.0, Nanos::from_millis(10))).with_min_query_count(40);
        let path = journal_path("foreign");
        let cfg = JournalConfig::new(&path).with_checkpoint_every(8);
        let mut qsl = MemoryQsl::new("q", 32, 32);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
        run_journaled(&settings, &mut qsl, &mut sut, &Instruments::none(), &cfg).unwrap();
        // Same journal, different run parameters: digest mismatch.
        let other = settings.clone().with_min_query_count(41);
        let err =
            resume_journaled(&other, &mut qsl, &mut sut, &Instruments::none(), &cfg).unwrap_err();
        assert!(matches!(err, LoadGenError::Journal(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journaled_rejects_completion_driven_scenarios() {
        let settings = small(TestSettings::single_stream());
        let path = journal_path("reject");
        let cfg = JournalConfig::new(&path);
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        let err =
            run_journaled(&settings, &mut qsl, &mut sut, &Instruments::none(), &cfg).unwrap_err();
        assert!(matches!(err, LoadGenError::BadSettings(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deterministic_given_seeds() {
        let settings =
            small(TestSettings::server(500.0, Nanos::from_millis(10))).with_min_query_count(200);
        let run = || {
            let mut qsl = MemoryQsl::new("q", 32, 32);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100));
            run_simulated(&settings, &mut qsl, &mut sut).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.result, b.result);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn rejects_empty_qsl_settings() {
        let settings = TestSettings::server(0.0, Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(1));
        assert!(matches!(
            run_simulated(&settings, &mut qsl, &mut sut),
            Err(LoadGenError::BadSettings(_))
        ));
    }

    #[test]
    fn time_traveling_sut_rejected() {
        struct TimeTraveler;
        impl SimSut for TimeTraveler {
            fn name(&self) -> &str {
                "tt"
            }
            fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
                SutReaction::complete(QueryCompletion::ok(
                    query.id,
                    now.saturating_sub(Nanos::from_micros(1)),
                    vec![],
                ))
            }
        }
        let settings = TestSettings::single_stream()
            .with_min_query_count(1)
            .with_min_duration(Nanos::ZERO);
        let mut qsl = MemoryQsl::new("q", 8, 8);
        // scheduled_at 0, so finished_at saturates to 0 == now: use an issue
        // at a later time by running a couple of queries.
        let mut sut = TimeTraveler;
        // First query at t=0 finishes at t=0 with empty samples: that is a
        // sample-count protocol violation.
        let err = run_simulated(&settings, &mut qsl, &mut sut).unwrap_err();
        assert!(matches!(err, LoadGenError::SutProtocol(_)));
    }
}
