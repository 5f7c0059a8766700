//! The wall-clock issue loop.
//!
//! Drives a [`RealtimeSut`] exactly the way the reference C++ LoadGen drives
//! a real system: real sleeps between arrivals, a worker pool for the
//! open-loop scenarios' concurrent queries, and `Instant`-based latency
//! measurement. The rulebook (seeding, scheduling, validation, metrics) is
//! shared with the simulated loop, so the two runners agree wherever timing
//! permits — an integration test asserts that.
//!
//! Every wall-clock run goes through one run body (settings and QSL
//! checks, sample loading, optional journal, scoring). Single-stream,
//! multistream, offline and accuracy mode issue synchronously from the
//! calling thread; every open-loop run — the server scenario, plain,
//! traced, journaled or resumed, and wall-clock replay of a recorded
//! schedule (`crate::replay`) — goes through one open-loop driver: one
//! worker pool, one sleep–issue loop, one halt path, one drain. A query
//! is stamped issued when the driver hands it to the pool, never before
//! its scheduled arrival; latency is measured from the arrival. The
//! driver records completions as they land, after each hand-off, so a
//! journal checkpoint sees only what is really in flight.
//!
//! Unlike the simulated loop, a realtime SUT can fail *structurally*: the
//! wire extension puts the LoadGen/SUT boundary on a socket, and sockets
//! disconnect. [`RealtimeSut::issue_outcome`] reports those failures and
//! this loop folds them into the PR 3 completion path — an erroring remote
//! becomes errored completions (`ErrorFractionExceeded`), a silently
//! dropped query stays outstanding (`IncompleteQueries`) — so a dying
//! server yields a structured INVALID verdict, never a hang.
//!
//! Official experiments in this repository use the simulated loop; this one
//! exists for fidelity to the original system, for exercising real
//! concurrency in tests and the quickstart example, and as the client-side
//! engine of the network SUT benchmark (`netbench`).

use crate::config::{TestMode, TestSettings};
use crate::des::{
    attach_journal, finish_run, load_samples, record_start, unhalted, RunOutcome, ServerCursor,
};
use crate::journal::{Checkpoint, JournalConfig, JournaledRun, RunJournal};
use crate::qsl::QuerySampleLibrary;
use crate::query::{Query, QueryCompletion};
use crate::record::Recorder;
use crate::replay::ReplaySchedule;
use crate::scenario::Scenario;
use crate::schedule::build_query;
use crate::sut::{IssueOutcome, RealtimeSut};
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_stats::Rng64;
use mlperf_trace::{NoopSink, TraceEvent, TraceSink};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Runs one benchmark against a wall clock.
///
/// # Errors
///
/// Returns [`LoadGenError`] for inconsistent settings, an unusable QSL, or
/// SUT protocol violations.
pub fn run_realtime<Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: Arc<dyn RealtimeSut>,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    run_realtime_traced(settings, qsl, sut, &NoopSink)
}

/// Runs one wall-clock benchmark with a detail-log sink attached.
///
/// Issue, completion, and error events land in `sink` with wall-clock
/// timestamps (nanoseconds since run start). This is the realtime analog
/// of `run_simulated_traced`, and what the TEST06 completeness audit reads
/// when the SUT lives on the far side of a socket.
///
/// # Errors
///
/// Returns [`LoadGenError`] for inconsistent settings, an unusable QSL, or
/// SUT protocol violations.
pub fn run_realtime_traced<Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: Arc<dyn RealtimeSut>,
    sink: &dyn TraceSink,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    run_realtime_traced_at(settings, qsl, sut, sink, Instant::now())
}

/// [`run_realtime_traced`] with an explicit clock origin.
///
/// Every timestamp in the detail log is measured from `origin` instead of
/// "now". Pass the instant another instrumented component (e.g. a wire
/// client) started its own clock at, and both event streams land on a
/// single shared time axis — the merged cross-host detail log depends on
/// this.
///
/// # Errors
///
/// Returns [`LoadGenError`] for inconsistent settings, an unusable QSL, or
/// SUT protocol violations.
pub fn run_realtime_traced_at<Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: Arc<dyn RealtimeSut>,
    sink: &dyn TraceSink,
    origin: Instant,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    run_wall(settings, qsl, sut, sink, Some(origin), None, None).map(unhalted)
}

/// Runs a wall-clock server benchmark under a crash-safe run journal.
///
/// The checkpoint cadence, resume semantics, and journal format are shared
/// with the simulated runner (`des::run_journaled`): every
/// `checkpoint_every` issued queries the scenario cursor, RNG states,
/// recorder image, and wire-session epoch are appended to the `MLPJ`
/// journal at `cfg.path`. With `resume = true` the run rolls back to the
/// last complete checkpoint and re-executes from there: the restored RNG
/// states re-draw the identical schedule and sample indices, outstanding
/// queries are re-sent to the SUT (with re-stamped `QueryIssued` events but
/// no duplicate recorder entries, keeping the TEST06 ledger balanced), and
/// the clock origin is shifted into the past by the checkpointed wall time
/// so arrival deadlines stay on the original time axis — queries whose
/// arrivals passed while the process was down issue immediately.
///
/// Only the server scenario in performance mode is supported; the other
/// scenarios are completion-driven and have no mid-run state worth saving
/// (a crashed single-stream run restarts from zero at no cost).
///
/// # Errors
///
/// Returns [`LoadGenError`] for inconsistent settings, an unusable QSL,
/// SUT protocol violations, or a journal that cannot be written — or, on
/// resume, one whose recorded settings digest does not match this run.
pub fn run_realtime_journaled<Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: Arc<dyn RealtimeSut>,
    sink: &dyn TraceSink,
    cfg: &JournalConfig,
    resume: bool,
) -> Result<JournaledRun, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    run_wall(settings, qsl, sut, sink, None, None, Some((cfg, resume)))
}

/// The one wall-clock run body. `origin` is the clock origin (`None`
/// starts the clock once the samples are loaded and the journal is
/// attached); `replay` swaps the performance-mode arrival process for a
/// recorded schedule (`crate::replay`); `journal` attaches a run journal
/// as `(config, resume)`. Only a journaled run can come back
/// [`JournaledRun::Halted`].
pub(crate) fn run_wall<Q>(
    settings: &TestSettings,
    qsl: &mut Q,
    sut: Arc<dyn RealtimeSut>,
    sink: &dyn TraceSink,
    origin: Option<Instant>,
    replay: Option<&ReplaySchedule>,
    journal: Option<(&JournalConfig, bool)>,
) -> Result<JournaledRun, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    settings.validate()?;
    if journal.is_some()
        && (settings.mode != TestMode::PerformanceOnly || settings.scenario != Scenario::Server)
    {
        return Err(LoadGenError::BadSettings(
            "journaled realtime runs support the server scenario in performance mode".into(),
        ));
    }
    let loaded = load_samples(settings, qsl)?;
    let population = loaded.len();
    let (mut journal, restored) = match journal {
        Some((cfg, resume)) => {
            let (journal, restored) = attach_journal(settings, population, cfg, resume)?;
            (Some((journal, cfg)), restored)
        }
        None => (None, None),
    };
    record_start(sink, settings, restored.is_some());
    let mut wall = Wall {
        settings,
        sut: &sut,
        recorder: Recorder::new(),
        sink,
        start: origin.unwrap_or_else(Instant::now),
    };
    let halted = match (settings.mode, replay) {
        (TestMode::AccuracyOnly, _) => {
            run_batch(&mut wall, &loaded, 1.0)?;
            false
        }
        (TestMode::PerformanceOnly, Some(schedule)) => {
            let arrivals = Arrivals::Replay {
                schedule,
                next: 0,
                next_sample_id: 0,
            };
            let acc_rng = Rng64::new(settings.seeds.accuracy_seed);
            drive_open_loop(&mut wall, population, arrivals, acc_rng, Vec::new(), None)?
        }
        (TestMode::PerformanceOnly, None) => match settings.scenario {
            Scenario::SingleStream => {
                run_single_stream(&mut wall, population)?;
                false
            }
            Scenario::MultiStream => {
                run_multi_stream(&mut wall, population)?;
                false
            }
            Scenario::Offline => {
                let mut rng = Rng64::new(settings.seeds.qsl_seed);
                let count = settings.offline_min_sample_count as usize;
                let indices = rng.sample_with_replacement(population, count);
                run_batch(&mut wall, &indices, settings.accuracy_log_probability)?;
                false
            }
            Scenario::Server => {
                let (cursor, acc_rng, reissue) = match &restored {
                    Some(cp) => {
                        wall.recorder = Recorder::restore(cp.recorder.clone());
                        // Shift the clock origin into the past so `elapsed()`
                        // resumes the interrupted run's time axis instead of
                        // restarting at 0.
                        wall.start = Instant::now()
                            .checked_sub(cp.wall.to_duration())
                            .unwrap_or_else(Instant::now);
                        let cursor = ServerCursor::restore(settings, cp)?;
                        let acc_rng = Rng64::from_state(cp.acc_rng);
                        (cursor, acc_rng, cp.recorder.outstanding_queries())
                    }
                    None => (
                        ServerCursor::fresh(settings)?,
                        Rng64::new(settings.seeds.accuracy_seed),
                        Vec::new(),
                    ),
                };
                let arrivals = Arrivals::Server(cursor);
                let journal = journal.as_mut();
                drive_open_loop(&mut wall, population, arrivals, acc_rng, reissue, journal)?
            }
        },
    };
    qsl.unload_samples(&loaded);
    if let Some((journal, cfg)) = &mut journal {
        if halted {
            sink.flush();
            return Ok(journal.halted(cfg));
        }
        journal.sync()?;
    }
    Ok(JournaledRun::Finished(Box::new(finish_run(
        settings,
        sut.name(),
        qsl.name(),
        wall.recorder,
        sink,
        None,
    ))))
}

/// What every wall-clock loop shares: the rules, the SUT, the recorder,
/// the detail log, and the clock origin.
struct Wall<'a> {
    settings: &'a TestSettings,
    sut: &'a Arc<dyn RealtimeSut>,
    recorder: Recorder,
    sink: &'a dyn TraceSink,
    start: Instant,
}

impl Wall<'_> {
    /// Time since the clock origin.
    fn now(&self) -> Nanos {
        Nanos::from(self.start.elapsed())
    }

    /// Sleeps until `at` on this run's clock (returns at once if it has
    /// passed).
    fn sleep_until(&self, at: Nanos) {
        let now = self.now();
        if at > now {
            std::thread::sleep(at.saturating_sub(now).to_duration());
        }
    }

    /// Records an issue and its `QueryIssued` event; `delay_ns` is how
    /// far `issued_at` trails the query's scheduled time.
    fn issue(&mut self, query: &Query, issued_at: Nanos) -> Result<(), LoadGenError> {
        self.recorder.record_issue(query, issued_at)?;
        record_issue_event(self.sink, query, issued_at);
        Ok(())
    }

    /// Resolves one [`IssueOutcome`] into the recorder and the detail log.
    ///
    /// `Completed` and `Errored` outcomes produce a completion record (and
    /// a `QueryCompleted` / `QueryErrored` event); `Vanished` leaves the
    /// query outstanding so the incomplete-queries validity rule catches
    /// it.
    fn resolve<F: FnMut(u64) -> bool>(
        &mut self,
        query: &Query,
        outcome: IssueOutcome,
        finished: Nanos,
        log: F,
    ) -> Result<(), LoadGenError> {
        match completion_of(query, outcome, finished) {
            Some(completion) => self.complete(&completion, query.scheduled_at, log),
            None => Ok(()),
        }
    }

    /// Records a ready-made completion (the open-loop driver builds them
    /// on worker threads) plus its trace event.
    fn complete<F: FnMut(u64) -> bool>(
        &mut self,
        completion: &QueryCompletion,
        scheduled_at: Nanos,
        log: F,
    ) -> Result<(), LoadGenError> {
        self.recorder.record_completion(completion, log)?;
        if self.sink.enabled() {
            let latency_ns = completion
                .finished_at
                .saturating_sub(scheduled_at)
                .as_nanos();
            let event = if completion.error {
                TraceEvent::QueryErrored {
                    query_id: completion.query_id,
                    latency_ns,
                }
            } else {
                TraceEvent::QueryCompleted {
                    query_id: completion.query_id,
                    latency_ns,
                }
            };
            self.sink.record(completion.finished_at.as_nanos(), &event);
        }
        Ok(())
    }

    /// Marks the end of issuing in the detail log.
    fn record_drain(&self) {
        if self.sink.enabled() {
            self.sink.record(
                self.now().as_nanos(),
                &TraceEvent::RunPhase {
                    phase: "drain".into(),
                    scenario: self.settings.scenario.to_string(),
                },
            );
        }
    }
}

fn log_sampler(settings: &TestSettings, probability: f64) -> impl FnMut(u64) -> bool {
    let mut rng = Rng64::new(settings.seeds.accuracy_seed);
    move |_| draw(&mut rng, probability)
}

/// One accuracy-log draw: whether a completed sample's payload is logged.
fn draw(rng: &mut Rng64, probability: f64) -> bool {
    probability > 0.0 && rng.next_bool(probability)
}

fn record_issue_event(sink: &dyn TraceSink, query: &Query, issued_at: Nanos) {
    if sink.enabled() {
        sink.record(
            issued_at.as_nanos(),
            &TraceEvent::QueryIssued {
                query_id: query.id,
                sample_count: query.sample_count(),
                delay_ns: issued_at.saturating_sub(query.scheduled_at).as_nanos(),
            },
        );
    }
}

/// The completion an [`IssueOutcome`] amounts to; `None` for a query that
/// vanished (never recorded, so it stays outstanding).
fn completion_of(query: &Query, outcome: IssueOutcome, finished: Nanos) -> Option<QueryCompletion> {
    match outcome {
        IssueOutcome::Completed(samples) => Some(QueryCompletion::ok(query.id, finished, samples)),
        IssueOutcome::Errored => Some(QueryCompletion::errored(query, finished)),
        IssueOutcome::Vanished => None,
    }
}

/// One query over `indices`, issued synchronously (offline + accuracy mode).
fn run_batch(
    wall: &mut Wall<'_>,
    indices: &[usize],
    log_probability: f64,
) -> Result<(), LoadGenError> {
    let mut next_sample_id = 0u64;
    let query = build_query(0, &mut next_sample_id, indices, Nanos::ZERO);
    wall.issue(&query, Nanos::ZERO)?;
    let outcome = wall.sut.issue_outcome(&query);
    let finished = wall.now();
    let log = log_sampler(wall.settings, log_probability);
    wall.resolve(&query, outcome, finished, log)
}

fn run_single_stream(wall: &mut Wall<'_>, population: usize) -> Result<(), LoadGenError> {
    let settings = wall.settings;
    let mut qsl_rng = Rng64::new(settings.seeds.qsl_seed);
    let mut log = log_sampler(settings, settings.accuracy_log_probability);
    let mut next_sample_id = 0u64;
    let mut issued = 0u64;
    loop {
        let scheduled = wall.now();
        let indices = qsl_rng.sample_with_replacement(population, settings.samples_per_query);
        let query = build_query(issued, &mut next_sample_id, &indices, scheduled);
        issued += 1;
        wall.issue(&query, scheduled)?;
        let outcome = wall.sut.issue_outcome(&query);
        let finished = wall.now();
        wall.resolve(&query, outcome, finished, &mut log)?;
        if issued >= settings.min_query_count && finished >= settings.min_duration {
            return Ok(());
        }
    }
}

fn run_multi_stream(wall: &mut Wall<'_>, population: usize) -> Result<(), LoadGenError> {
    let settings = wall.settings;
    let interval = settings.multistream_arrival_interval;
    let mut qsl_rng = Rng64::new(settings.seeds.qsl_seed);
    let mut log = log_sampler(settings, settings.accuracy_log_probability);
    let mut next_sample_id = 0u64;
    let mut issued = 0u64;
    let mut boundary = Nanos::ZERO;
    loop {
        wall.sleep_until(boundary);
        let indices = qsl_rng.sample_with_replacement(population, settings.samples_per_query);
        let query = build_query(issued, &mut next_sample_id, &indices, boundary);
        issued += 1;
        wall.issue(&query, boundary)?;
        let outcome = wall.sut.issue_outcome(&query);
        let finished = wall.now();
        wall.resolve(&query, outcome, finished, &mut log)?;
        // Intervals consumed by this query; every one beyond the first was
        // skipped and delays the remaining queries.
        let elapsed = finished.saturating_sub(boundary).as_nanos();
        let consumed = elapsed.div_ceil(interval.as_nanos()).max(1);
        let skips = consumed - 1;
        if skips > 0 {
            wall.recorder.record_skips(query.id, skips as u32);
            if wall.sink.enabled() {
                wall.sink.record(
                    finished.as_nanos(),
                    &TraceEvent::OverloadDropped {
                        query_id: query.id,
                        intervals: skips,
                    },
                );
            }
        }
        boundary += interval.mul(consumed);
        if issued >= settings.min_query_count && boundary >= settings.min_duration {
            return Ok(());
        }
    }
}

/// Where the open-loop driver's arrivals come from.
enum Arrivals<'a> {
    /// The server scenario's Poisson schedule, fresh or restored from a
    /// checkpoint.
    Server(ServerCursor),
    /// A recorded schedule, open loop for every scenario: it *is* the run,
    /// so `min_query_count` / `min_duration` never extend it.
    Replay {
        schedule: &'a ReplaySchedule,
        next: usize,
        next_sample_id: u64,
    },
}

impl Arrivals<'_> {
    /// When the next query is due; `None` once the run stops issuing.
    fn due(&self) -> Option<Nanos> {
        match self {
            Arrivals::Server(cursor) => cursor.pending_arrival,
            Arrivals::Replay { schedule, next, .. } => schedule.arrivals.get(*next).copied(),
        }
    }

    /// Builds the query that is due and moves past it.
    fn take(&mut self, settings: &TestSettings, population: usize) -> Query {
        match self {
            Arrivals::Server(cursor) => {
                let at = cursor.pending_arrival.take().expect("a query is due");
                let indices = cursor
                    .qsl_rng
                    .sample_with_replacement(population, settings.samples_per_query);
                let query = build_query(cursor.issued, &mut cursor.next_sample_id, &indices, at);
                cursor.issued += 1;
                // Stop once both the Table V count and the minimum duration
                // are met — after issuing the arrival that meets them, as
                // the C++ LoadGen does. The next arrival is drawn only when
                // the run continues, so every run consumes the schedule RNG
                // identically: the settings digest pins the seeds, this
                // pins the draw count.
                if !(cursor.issued >= settings.min_query_count && at >= settings.min_duration) {
                    cursor.pending_arrival = Some(cursor.next_arrival());
                }
                query
            }
            Arrivals::Replay {
                schedule,
                next,
                next_sample_id,
            } => {
                let at = schedule.arrivals[*next];
                // A recorded trace may index a larger QSL than the one it
                // replays against; fold indices into the population rather
                // than rejecting the run.
                let indices: Vec<usize> = schedule.indices[*next]
                    .iter()
                    .map(|&i| i % population)
                    .collect();
                let query = build_query(*next as u64, next_sample_id, &indices, at);
                *next += 1;
                query
            }
        }
    }
}

/// The one open-loop wall-clock driver: the server scenario (plain,
/// traced, journaled, resumed) and wall-clock replay.
///
/// Spawns the worker pool once and re-sends `reissue` — a resumed
/// checkpoint's outstanding queries, whose issue records the restored
/// recorder already holds, so only the `QueryIssued` event is re-stamped
/// (TEST06 needs an issue event ahead of each completion in the resumed
/// log; a remote end dedups the re-execution via its completion journal).
/// Then it sleeps to each arrival and hands the query to the pool, stamped
/// issued at `max(now, arrival)`, and folds every completion that has
/// already come back into the recorder. Folding as completions land keeps
/// the recorder's outstanding set to what is really in flight, so a
/// checkpoint's stable prefix advances with the run and each frame carries
/// only its delta. `acc_rng` is the run's one accuracy-log sampler, fresh
/// or restored from the checkpoint, and each checkpoint captures its live
/// state. With a journal attached, a checkpoint is captured every
/// `checkpoint_every` issued queries; when the armed halt fires the
/// in-flight completions are discarded, as a killed process would lose
/// them, and the driver returns `true`. Otherwise the completions still in
/// flight are drained into the recorder.
fn drive_open_loop(
    wall: &mut Wall<'_>,
    population: usize,
    mut arrivals: Arrivals<'_>,
    mut acc_rng: Rng64,
    reissue: Vec<Query>,
    mut journal: Option<&mut (RunJournal, &JournalConfig)>,
) -> Result<bool, LoadGenError> {
    let settings = wall.settings;
    let start = wall.start;
    let (work_tx, work_rx) = mpsc::channel::<Query>();
    // Workers report (scheduled_at, completion); `None` completions mark
    // queries that vanished on a live transport — never recorded, so they
    // stay outstanding and trip the incomplete-queries check.
    let (done_tx, done_rx) = mpsc::channel::<(Nanos, Option<QueryCompletion>)>();
    // std's Receiver is single-consumer; the worker pool shares it behind a
    // mutex (each worker holds the lock only for the dequeue itself).
    let work_rx = Arc::new(Mutex::new(work_rx));
    let mut workers = Vec::new();
    for _ in 0..settings.server_workers {
        let rx = Arc::clone(&work_rx);
        let tx = done_tx.clone();
        let sut = Arc::clone(wall.sut);
        workers.push(std::thread::spawn(move || loop {
            let query = match rx.lock().expect("work queue poisoned").recv() {
                Ok(query) => query,
                Err(_) => break,
            };
            let outcome = sut.issue_outcome(&query);
            let completion = completion_of(&query, outcome, Nanos::from(start.elapsed()));
            if tx.send((query.scheduled_at, completion)).is_err() {
                break;
            }
        }));
    }
    drop(work_rx);
    drop(done_tx);
    let send = |query: Query| {
        work_tx
            .send(query)
            .map_err(|_| LoadGenError::SutProtocol("issue worker pool died".into()))
    };
    for query in reissue {
        record_issue_event(wall.sink, &query, query.scheduled_at);
        send(query)?;
    }
    let mut halted = false;
    while let Some(arrival) = arrivals.due() {
        wall.sleep_until(arrival);
        let query = arrivals.take(settings, population);
        let issued_at = wall.now().max(arrival);
        wall.issue(&query, issued_at)?;
        send(query)?;
        fold(wall, done_rx.try_iter(), &mut acc_rng)?;
        if let (Some((journal, cfg)), Arrivals::Server(cursor)) = (&mut journal, &arrivals) {
            if cursor.issued.is_multiple_of(cfg.checkpoint_every) {
                let cp = checkpoint(journal, cfg, cursor, wall, &acc_rng);
                if journal.append_checkpoint(cfg, &cp)? {
                    halted = true;
                    break;
                }
            }
        }
    }
    drop(work_tx);
    if halted {
        for _ in done_rx.iter() {}
        for worker in workers {
            let _ = worker.join();
        }
        return Ok(true);
    }
    wall.record_drain();
    fold(wall, done_rx.iter(), &mut acc_rng)?;
    for worker in workers {
        worker
            .join()
            .map_err(|_| LoadGenError::SutProtocol("issue worker panicked".into()))?;
    }
    Ok(false)
}

/// Records the completions workers have reported, as `(scheduled_at,
/// completion)` pairs; a `None` completion is a query that vanished.
fn fold(
    wall: &mut Wall<'_>,
    done: impl Iterator<Item = (Nanos, Option<QueryCompletion>)>,
    acc_rng: &mut Rng64,
) -> Result<(), LoadGenError> {
    let probability = wall.settings.accuracy_log_probability;
    for (scheduled_at, completion) in done {
        if let Some(completion) = completion {
            wall.complete(&completion, scheduled_at, |_| draw(acc_rng, probability))?;
        }
    }
    Ok(())
}

/// The checkpoint of a wall-clock server run at its current boundary.
fn checkpoint(
    journal: &RunJournal,
    cfg: &JournalConfig,
    cursor: &ServerCursor,
    wall: &Wall<'_>,
    acc_rng: &Rng64,
) -> Checkpoint {
    let (sched_rng, sched_now) = cursor.arrivals.state();
    let (records_from, accuracy_from) = journal.flushed_marks();
    Checkpoint {
        seq: journal.checkpoints,
        issued: cursor.issued,
        next_sample_id: cursor.next_sample_id,
        wall: wall.now(),
        pending_arrival: cursor.pending_arrival,
        qsl_rng: cursor.qsl_rng.state(),
        sched_rng,
        sched_now_bits: sched_now.to_bits(),
        acc_rng: acc_rng.state(),
        epoch: cfg
            .epoch_source
            .as_ref()
            .map_or(0, |e| e.load(std::sync::atomic::Ordering::SeqCst)),
        recorder: wall.recorder.snapshot_suffix(records_from, accuracy_from),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsl::MemoryQsl;
    use crate::query::SampleCompletion;
    use crate::results::ScenarioMetric;
    use crate::sut::SleepSut;
    use crate::validate::ValidityIssue;
    use mlperf_trace::RingBufferSink;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn sleepy(us: u64) -> Arc<dyn RealtimeSut> {
        Arc::new(SleepSut::new("sleepy", Duration::from_micros(us)))
    }

    /// A SUT whose every `n`-th query errors or vanishes.
    struct FlakySut {
        counter: AtomicU64,
        every: u64,
        vanish: bool,
    }

    impl RealtimeSut for FlakySut {
        fn name(&self) -> &str {
            "flaky"
        }

        fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
            query
                .samples
                .iter()
                .map(|s| SampleCompletion {
                    sample_id: s.id,
                    payload: Default::default(),
                })
                .collect()
        }

        fn issue_outcome(&self, query: &Query) -> IssueOutcome {
            let n = self.counter.fetch_add(1, Ordering::Relaxed);
            if n % self.every == self.every - 1 {
                if self.vanish {
                    IssueOutcome::Vanished
                } else {
                    IssueOutcome::Errored
                }
            } else {
                IssueOutcome::Completed(self.issue(query))
            }
        }
    }

    #[test]
    fn single_stream_realtime() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(20)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = run_realtime(&settings, &mut qsl, sleepy(200)).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        assert!(out.result.query_count >= 20);
        match out.result.metric {
            ScenarioMetric::SingleStream { p90_latency } => {
                assert!(p90_latency >= Nanos::from_micros(200));
            }
            ref m => panic!("wrong metric {m:?}"),
        }
    }

    #[test]
    fn offline_realtime() {
        let settings = TestSettings::offline()
            .with_min_duration(Nanos::from_millis(1))
            .with_offline_min_sample_count(50);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = run_realtime(&settings, &mut qsl, sleepy(50)).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        assert_eq!(out.result.sample_count, 50);
    }

    #[test]
    fn server_realtime_underloaded_is_valid() {
        let settings = TestSettings::server(200.0, Nanos::from_millis(50))
            .with_min_query_count(50)
            .with_min_duration(Nanos::from_millis(10));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = run_realtime(&settings, &mut qsl, sleepy(100)).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        assert_eq!(out.result.query_count, out.result.sample_count);
    }

    #[test]
    fn server_worker_pool_is_configurable() {
        let settings = TestSettings::server(500.0, Nanos::from_millis(50))
            .with_min_query_count(40)
            .with_min_duration(Nanos::from_millis(5))
            .with_server_workers(2);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = run_realtime(&settings, &mut qsl, sleepy(100)).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
    }

    #[test]
    fn multistream_realtime() {
        // Generous interval vs service time: scheduler jitter in loaded CI
        // environments must not overrun an interval.
        let settings = TestSettings::multi_stream(2, Nanos::from_millis(25))
            .with_min_query_count(8)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let out = run_realtime(&settings, &mut qsl, sleepy(100)).unwrap();
        assert!(out.result.is_valid(), "{:?}", out.result.validity);
        match out.result.metric {
            ScenarioMetric::MultiStream { streams, .. } => assert_eq!(streams, 2),
            ref m => panic!("wrong metric {m:?}"),
        }
    }

    #[test]
    fn accuracy_mode_realtime_covers_dataset() {
        let settings = TestSettings::offline().with_mode(TestMode::AccuracyOnly);
        let mut qsl = MemoryQsl::new("q", 40, 8);
        let out = run_realtime(&settings, &mut qsl, sleepy(1)).unwrap();
        assert_eq!(out.accuracy_log.len(), 40);
    }

    #[test]
    fn errored_outcomes_fail_the_error_fraction_rule() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(10)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let sut = Arc::new(FlakySut {
            counter: AtomicU64::new(0),
            every: 2,
            vanish: false,
        });
        let out = run_realtime(&settings, &mut qsl, sut).unwrap();
        assert!(!out.result.is_valid());
        assert!(out.result.error_count > 0);
        assert!(
            out.result
                .validity
                .iter()
                .any(|i| matches!(i, ValidityIssue::ErrorFractionExceeded { .. })),
            "{:?}",
            out.result.validity
        );
    }

    #[test]
    fn vanished_outcomes_stay_outstanding() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(10)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let sut = Arc::new(FlakySut {
            counter: AtomicU64::new(0),
            every: 5,
            vanish: true,
        });
        let out = run_realtime(&settings, &mut qsl, sut).unwrap();
        assert!(!out.result.is_valid());
        assert!(
            out.result
                .validity
                .iter()
                .any(|i| matches!(i, ValidityIssue::IncompleteQueries { .. })),
            "{:?}",
            out.result.validity
        );
    }

    #[test]
    fn traced_run_logs_issue_and_completion_events() {
        let settings = TestSettings::single_stream()
            .with_min_query_count(5)
            .with_min_duration(Nanos::from_micros(1));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let sink = RingBufferSink::unbounded();
        let out = run_realtime_traced(&settings, &mut qsl, sleepy(10), &sink).unwrap();
        let records = sink.snapshot();
        let issued = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::QueryIssued { .. }))
            .count() as u64;
        let completed = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::QueryCompleted { .. }))
            .count() as u64;
        assert_eq!(issued, out.result.query_count);
        assert_eq!(completed, out.result.query_count);
        assert!(records
            .iter()
            .any(|r| matches!(&r.event, TraceEvent::RunPhase { phase, .. } if phase == "report")));
    }

    /// Logical identity of a run: the fields a crash + resume must
    /// preserve exactly (ids, schedule, sample counts, error flags) —
    /// wall-clock latencies legitimately differ between executions.
    fn logical(records: &[crate::record::QueryRecord]) -> Vec<(u64, u64, usize, bool)> {
        records
            .iter()
            .map(|r| (r.id, r.scheduled_at.as_nanos(), r.sample_count, r.error))
            .collect()
    }

    fn crashy_settings() -> TestSettings {
        TestSettings::server(4_000.0, Nanos::from_millis(50))
            .with_min_query_count(40)
            .with_min_duration(Nanos::from_millis(1))
    }

    #[test]
    fn realtime_journaled_without_halt_matches_plain_run() {
        let settings = crashy_settings();
        let dir = std::env::temp_dir().join(format!("mlpj-rt-plain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.mlpj");
        let _ = std::fs::remove_file(&path);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let cfg = crate::journal::JournalConfig::new(&path).with_checkpoint_every(8);
        let journaled =
            run_realtime_journaled(&settings, &mut qsl, sleepy(20), &NoopSink, &cfg, false)
                .unwrap()
                .finished()
                .expect("no halt armed");
        let plain = run_realtime(&settings, &mut qsl, sleepy(20)).unwrap();
        assert_eq!(logical(&journaled.records), logical(&plain.records));
        assert!(journaled.result.is_valid());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn realtime_resume_at_every_checkpoint_matches_uninterrupted() {
        let settings = crashy_settings();
        let dir = std::env::temp_dir().join(format!("mlpj-rt-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let baseline = {
            let path = dir.join("baseline.mlpj");
            let _ = std::fs::remove_file(&path);
            let cfg = crate::journal::JournalConfig::new(&path).with_checkpoint_every(8);
            run_realtime_journaled(&settings, &mut qsl, sleepy(20), &NoopSink, &cfg, false)
                .unwrap()
                .finished()
                .expect("no halt armed")
        };
        // 40 queries / checkpoint every 8 = checkpoints seq 0..=4.
        for halt_at in 0..5u64 {
            for torn in [false, true] {
                let path = dir.join(format!("halt{halt_at}-torn{torn}.mlpj"));
                let _ = std::fs::remove_file(&path);
                let mut cfg = crate::journal::JournalConfig::new(&path)
                    .with_checkpoint_every(8)
                    .with_halt_after(halt_at);
                if torn {
                    cfg = cfg.with_torn_halt();
                }
                let halted =
                    run_realtime_journaled(&settings, &mut qsl, sleepy(20), &NoopSink, &cfg, false)
                        .unwrap();
                match halted {
                    JournaledRun::Halted { checkpoint } => assert_eq!(checkpoint, halt_at),
                    JournaledRun::Finished(_) => panic!("halt_after({halt_at}) did not fire"),
                }
                let resume_cfg = crate::journal::JournalConfig::new(&path).with_checkpoint_every(8);
                let sink = RingBufferSink::unbounded();
                let rescued = run_realtime_journaled(
                    &settings,
                    &mut qsl,
                    sleepy(20),
                    &sink,
                    &resume_cfg,
                    true,
                )
                .unwrap()
                .finished()
                .expect("resume runs to completion");
                assert_eq!(
                    logical(&rescued.records),
                    logical(&baseline.records),
                    "halt_at={halt_at} torn={torn}"
                );
                assert!(rescued.result.is_valid());
                // TEST06 shape on the resumed log: every completion has an
                // issue event ahead of it (re-stamped for re-sent queries).
                let records = sink.snapshot();
                let mut open = std::collections::HashSet::new();
                for r in &records {
                    match &r.event {
                        TraceEvent::QueryIssued { query_id, .. } => {
                            assert!(open.insert(*query_id), "duplicate issue {query_id}");
                        }
                        TraceEvent::QueryCompleted { query_id, .. }
                        | TraceEvent::QueryErrored { query_id, .. } => {
                            assert!(open.remove(query_id), "completion without issue");
                        }
                        _ => {}
                    }
                }
                assert!(open.is_empty(), "unresolved issues in resumed log");
                std::fs::remove_file(&path).unwrap();
            }
        }
        let _ = std::fs::remove_file(dir.join("baseline.mlpj"));
    }

    #[test]
    fn realtime_journaled_rejects_other_scenarios() {
        let settings = TestSettings::single_stream().with_min_query_count(4);
        let dir = std::env::temp_dir();
        let cfg = crate::journal::JournalConfig::new(dir.join("mlpj-rt-reject.mlpj"));
        let mut qsl = MemoryQsl::new("q", 8, 8);
        let err = run_realtime_journaled(&settings, &mut qsl, sleepy(10), &NoopSink, &cfg, false)
            .unwrap_err();
        assert!(matches!(err, LoadGenError::BadSettings(_)));
    }

    #[test]
    fn multistream_skips_reach_the_detail_log() {
        // 2 samples * 1.5 ms = 3 ms per query against a 2 ms interval:
        // every query overruns at least one interval.
        let settings = TestSettings::multi_stream(2, Nanos::from_millis(2))
            .with_min_query_count(6)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let sink = RingBufferSink::unbounded();
        let out = run_realtime_traced(&settings, &mut qsl, sleepy(1_500), &sink).unwrap();
        let skipped: u64 = out
            .records
            .iter()
            .map(|r| u64::from(r.skipped_intervals))
            .sum();
        let dropped: u64 = sink
            .snapshot()
            .iter()
            .map(|r| match r.event {
                TraceEvent::OverloadDropped { intervals, .. } => intervals,
                _ => 0,
            })
            .sum();
        assert!(skipped >= out.records.len() as u64, "{skipped} skips");
        assert_eq!(dropped, skipped);
    }

    /// Runs a fresh journaled server run into `path` and returns it.
    fn journaled_run(
        settings: &TestSettings,
        path: &std::path::Path,
        cfg: &crate::journal::JournalConfig,
        resume: bool,
    ) -> JournaledRun {
        if !resume {
            let _ = std::fs::remove_file(path);
        }
        let mut qsl = MemoryQsl::new("q", 16, 16);
        run_realtime_journaled(settings, &mut qsl, sleepy(5), &NoopSink, cfg, resume).unwrap()
    }

    #[test]
    fn wall_clock_checkpoints_carry_only_their_delta() {
        const EVERY: u64 = 8;
        // A frame re-sends the records from the lowest outstanding one on,
        // so its size is bounded by what is really in flight. 64 queries is
        // a 64 ms stall at 1k QPS: far above a healthy run's window of one
        // or two, far below the whole-run window of a journal that never
        // folds completions before the drain.
        const WINDOW_CAP: usize = 64;
        let dir = std::env::temp_dir().join(format!("mlpj-rt-delta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes_per_query = Vec::new();
        for queries in [400u64, 800] {
            let settings = TestSettings::server(1_000.0, Nanos::from_millis(50))
                .with_min_query_count(queries)
                .with_min_duration(Nanos::from_millis(1));
            let path = dir.join(format!("delta-{queries}.mlpj"));
            let cfg = crate::journal::JournalConfig::new(&path)
                .with_checkpoint_every(EVERY)
                .with_fsync_every(u32::MAX);
            let out = journaled_run(&settings, &path, &cfg, false)
                .finished()
                .expect("no halt armed");
            let scan = mlperf_trace::journal::read_journal(&path).unwrap();
            assert!(scan.torn.is_none());
            let frames = &scan.records[1..];
            assert_eq!(frames.len() as u64, out.records.len() as u64 / EVERY);
            for (k, frame) in frames.iter().enumerate() {
                let cp = Checkpoint::decode(frame).unwrap();
                let (records, outstanding) =
                    (cp.recorder.records.len(), cp.recorder.outstanding.len());
                assert!(
                    outstanding <= WINDOW_CAP && records <= EVERY as usize + WINDOW_CAP,
                    "{queries}-query run, checkpoint {k}: {records} records, \
                     {outstanding} outstanding"
                );
            }
            let len = std::fs::metadata(&path).unwrap().len();
            bytes_per_query.push(len as f64 / out.records.len() as f64);
            std::fs::remove_file(&path).unwrap();
        }
        // Linear journals: twice the run, the same bytes per query.
        let growth = bytes_per_query[1] / bytes_per_query[0];
        assert!(growth <= 1.25, "bytes/query {bytes_per_query:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wall_clock_accuracy_sampler_survives_resume() {
        // One worker completes queries in issue order, so the n-th draw
        // always decides the n-th sample and the logged ids are a pure
        // function of the seed.
        let settings = TestSettings::server(1_000.0, Nanos::from_millis(50))
            .with_min_query_count(64)
            .with_min_duration(Nanos::from_millis(1))
            .with_accuracy_log_probability(0.5)
            .with_server_workers(1);
        let dir = std::env::temp_dir().join(format!("mlpj-rt-acc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let logged = |out: &RunOutcome| -> Vec<u64> {
            out.accuracy_log.iter().map(|a| a.sample_id).collect()
        };
        let path = dir.join("baseline.mlpj");
        let cfg = crate::journal::JournalConfig::new(&path).with_checkpoint_every(8);
        let baseline = journaled_run(&settings, &path, &cfg, false)
            .finished()
            .expect("no halt armed");
        assert!(!baseline.accuracy_log.is_empty());

        let path = dir.join("halted.mlpj");
        let cfg = crate::journal::JournalConfig::new(&path).with_checkpoint_every(8);
        let halted = journaled_run(&settings, &path, &cfg.clone().with_halt_after(1), false);
        assert!(matches!(halted, JournaledRun::Halted { checkpoint: 1 }));
        let cp = crate::journal::load_run_journal(&path)
            .unwrap()
            .last
            .expect("checkpoint 1 is on disk");
        // The checkpoint holds the live sampler: the seed advanced by one
        // draw per sample completed before it.
        let draws = cp.recorder.samples_completed;
        assert!(draws > 0, "no completion folded before checkpoint 1");
        let mut expect = Rng64::new(settings.seeds.accuracy_seed);
        let hits = (0..draws).filter(|_| expect.next_bool(0.5)).count();
        assert_eq!(cp.acc_rng, expect.state());
        assert_eq!(cp.recorder.accuracy_log.len(), hits);

        let rescued = journaled_run(&settings, &path, &cfg, true)
            .finished()
            .expect("resume runs to completion");
        assert_eq!(logical(&rescued.records), logical(&baseline.records));
        assert_eq!(logged(&rescued), logged(&baseline));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checks every `QueryIssued` event against the run's records: the
    /// schedule is recoverable as `ts - delay`, and a fresh issue is
    /// stamped at its record's `issued_at`, the moment it was handed to
    /// the worker pool. Re-issues of a checkpoint's outstanding queries
    /// (`reissued`) keep `delay_ns = 0`.
    fn assert_issue_stamps(
        sink: &RingBufferSink,
        records: &[crate::record::QueryRecord],
        reissued: &std::collections::HashSet<u64>,
    ) {
        let by_id: std::collections::HashMap<u64, _> = records.iter().map(|r| (r.id, r)).collect();
        let (mut fresh, mut late) = (0, 0);
        for r in sink.snapshot() {
            if let TraceEvent::QueryIssued {
                query_id, delay_ns, ..
            } = r.event
            {
                let record = by_id[&query_id];
                assert_eq!(
                    r.ts_ns - delay_ns,
                    record.scheduled_at.as_nanos(),
                    "query {query_id}"
                );
                if reissued.contains(&query_id) {
                    assert_eq!(delay_ns, 0, "re-issued query {query_id}");
                } else {
                    assert_eq!(r.ts_ns, record.issued_at.as_nanos(), "query {query_id}");
                    fresh += 1;
                    late += u32::from(delay_ns > 0);
                }
            }
        }
        // Sleeps overshoot, so a real dispatch stamp trails its arrival.
        assert!(late > 0, "none of {fresh} fresh issues trails its schedule");
    }

    #[test]
    fn open_loop_issue_stamps_trail_the_schedule() {
        let none = std::collections::HashSet::new();
        let settings = TestSettings::server(2_000.0, Nanos::from_millis(50))
            .with_min_query_count(50)
            .with_min_duration(Nanos::from_millis(1));
        let mut qsl = MemoryQsl::new("q", 16, 16);

        let sink = RingBufferSink::unbounded();
        let out = run_realtime_traced(&settings, &mut qsl, sleepy(10), &sink).unwrap();
        assert_issue_stamps(&sink, &out.records, &none);

        let schedule = crate::replay::ReplaySchedule {
            scenario: Scenario::Server,
            arrivals: out.records.iter().map(|r| r.scheduled_at).collect(),
            indices: (0..out.records.len()).map(|i| vec![i % 16]).collect(),
        };
        let sink = RingBufferSink::unbounded();
        let out = crate::replay::run_realtime_replay_traced_at(
            &settings,
            &schedule,
            &mut qsl,
            sleepy(10),
            &sink,
            Instant::now(),
        )
        .unwrap();
        assert_issue_stamps(&sink, &out.records, &none);

        let dir = std::env::temp_dir().join(format!("mlpj-rt-stamp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.mlpj");
        let _ = std::fs::remove_file(&path);
        let cfg = crate::journal::JournalConfig::new(&path).with_checkpoint_every(8);
        let halt = cfg.clone().with_halt_after(1);
        let halted =
            run_realtime_journaled(&settings, &mut qsl, sleepy(200), &NoopSink, &halt, false)
                .unwrap();
        assert!(matches!(halted, JournaledRun::Halted { checkpoint: 1 }));
        let cp = crate::journal::load_run_journal(&path)
            .unwrap()
            .last
            .expect("checkpoint 1 is on disk");
        let reissued = cp.recorder.outstanding.iter().map(|e| e.id).collect();
        let sink = RingBufferSink::unbounded();
        let out = run_realtime_journaled(&settings, &mut qsl, sleepy(200), &sink, &cfg, true)
            .unwrap()
            .finished()
            .expect("resume runs to completion");
        assert_issue_stamps(&sink, &out.records, &reissued);
        std::fs::remove_file(&path).unwrap();
    }
}
