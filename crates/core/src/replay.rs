//! Replay: a recorded schedule as a first-class arrival process.
//!
//! The four scenarios generate their query streams from seeds; replay
//! re-issues a stream that was *recorded* — explicit arrival times and
//! explicit per-query sample indices extracted from a detail log (the
//! `mlperf-replay` crate builds [`ReplaySchedule`]s from recorded traces).
//! Everything downstream of arrival generation is the unchanged LoadGen
//! machinery: the same recorder, the same validity rules for the recorded
//! scenario, the same scoring. That is what makes a replayed run a real
//! benchmark rather than a traffic-shaped smoke test.
//!
//! A schedule is one more arrival source for each clock's run body:
//!
//! * [`run_simulated_replay_traced`] — the discrete-event run body, for
//!   deterministic audits and simulated SUTs.
//! * [`run_realtime_replay_traced_at`] — the wall-clock open-loop driver
//!   the server scenario uses, for any [`RealtimeSut`]: a local stack, a
//!   `RemoteSut` on the wire, or a sharded fleet router.
//!
//! Replay is open loop by construction — the schedule *is* the run, so
//! `min_query_count` / `min_duration` never extend it, and closed-loop
//! scenarios (single-stream, multistream) replay on their recorded
//! timeline instead of re-deriving one from completions.

use crate::config::{TestMode, TestSettings};
use crate::des::{self, unhalted, RunOutcome};
use crate::instrument::Instruments;
use crate::qsl::QuerySampleLibrary;
use crate::realtime;
use crate::scenario::Scenario;
use crate::sut::{RealtimeSut, SimSut};
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_trace::TraceSink;
use std::sync::Arc;
use std::time::Instant;

/// A recorded query schedule, ready to re-issue.
///
/// Arrival times are nanoseconds since run start, non-decreasing; each
/// query carries the explicit sample indices it drew when it was
/// recorded. Query ids are assigned sequentially at replay time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySchedule {
    /// The scenario whose validity rules and metric apply to the replay.
    pub scenario: Scenario,
    /// Scheduled arrival time of each query, non-decreasing.
    pub arrivals: Vec<Nanos>,
    /// Sample indices of each query (parallel to `arrivals`). Indices are
    /// folded into the replay QSL's population with a modulo, so a trace
    /// recorded against a larger library still replays.
    pub indices: Vec<Vec<usize>>,
}

impl ReplaySchedule {
    /// Number of queries in the schedule.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the schedule has no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Checks the schedule's structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`LoadGenError::BadSettings`] when the schedule is empty,
    /// the arrival and index vectors disagree in length, arrivals go
    /// backwards, or a query has no samples.
    pub fn validate(&self) -> Result<(), LoadGenError> {
        if self.arrivals.is_empty() {
            return Err(LoadGenError::BadSettings(
                "replay schedule has no queries".into(),
            ));
        }
        if self.arrivals.len() != self.indices.len() {
            return Err(LoadGenError::BadSettings(format!(
                "replay schedule has {} arrivals but {} index sets",
                self.arrivals.len(),
                self.indices.len()
            )));
        }
        if self.arrivals.windows(2).any(|w| w[1] < w[0]) {
            return Err(LoadGenError::BadSettings(
                "replay schedule arrivals go backwards".into(),
            ));
        }
        if let Some(i) = self.indices.iter().position(Vec::is_empty) {
            return Err(LoadGenError::BadSettings(format!(
                "replay schedule query {i} has no sample indices"
            )));
        }
        Ok(())
    }
}

/// Shared preconditions of both replay runners.
fn check(settings: &TestSettings, schedule: &ReplaySchedule) -> Result<(), LoadGenError> {
    schedule.validate()?;
    if settings.mode != TestMode::PerformanceOnly {
        return Err(LoadGenError::BadSettings(
            "replay only runs in performance mode".into(),
        ));
    }
    if settings.scenario != schedule.scenario {
        return Err(LoadGenError::BadSettings(format!(
            "settings scenario {} but schedule was recorded under {}",
            settings.scenario, schedule.scenario
        )));
    }
    Ok(())
}

/// Replays a recorded schedule under simulated time, with a detail-log
/// sink attached ([`mlperf_trace::NoopSink`] for none).
///
/// # Errors
///
/// Returns [`LoadGenError`] for a malformed schedule, inconsistent
/// settings, an unusable QSL, or an SUT protocol violation.
pub fn run_simulated_replay_traced<Q, S>(
    settings: &TestSettings,
    schedule: &ReplaySchedule,
    qsl: &mut Q,
    sut: &mut S,
    sink: &dyn TraceSink,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    check(settings, schedule)?;
    let instruments = Instruments::traced(sink);
    des::run_sim(settings, qsl, sut, &instruments, Some(schedule), None).map(unhalted)
}

/// Replays a recorded schedule against a wall clock, with a detail-log
/// sink and an explicit clock origin, for sharing one time axis with
/// instrumented wire clients.
///
/// # Errors
///
/// Same contract as [`run_simulated_replay_traced`].
pub fn run_realtime_replay_traced_at<Q>(
    settings: &TestSettings,
    schedule: &ReplaySchedule,
    qsl: &mut Q,
    sut: Arc<dyn RealtimeSut>,
    sink: &dyn TraceSink,
    origin: Instant,
) -> Result<RunOutcome, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
{
    check(settings, schedule)?;
    realtime::run_wall(settings, qsl, sut, sink, Some(origin), Some(schedule), None).map(unhalted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsl::MemoryQsl;
    use crate::sut::{FixedLatencySut, SleepSut};
    use mlperf_trace::NoopSink;
    use std::time::Duration;

    fn schedule(n: usize, gap_us: u64) -> ReplaySchedule {
        ReplaySchedule {
            scenario: Scenario::Server,
            arrivals: (0..n)
                .map(|i| Nanos::from_micros(i as u64 * gap_us))
                .collect(),
            indices: (0..n).map(|i| vec![i % 7]).collect(),
        }
    }

    fn replay_settings(n: usize) -> TestSettings {
        TestSettings::server(1_000.0, Nanos::from_millis(50))
            .with_min_query_count(n as u64)
            .with_min_duration(Nanos::ZERO)
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        let empty = ReplaySchedule {
            scenario: Scenario::Server,
            arrivals: vec![],
            indices: vec![],
        };
        assert!(empty.validate().is_err());

        let backwards = ReplaySchedule {
            scenario: Scenario::Server,
            arrivals: vec![Nanos::from_micros(5), Nanos::from_micros(1)],
            indices: vec![vec![0], vec![0]],
        };
        assert!(backwards.validate().is_err());

        let no_samples = ReplaySchedule {
            scenario: Scenario::Server,
            arrivals: vec![Nanos::ZERO],
            indices: vec![vec![]],
        };
        assert!(no_samples.validate().is_err());
    }

    #[test]
    fn scenario_mismatch_is_bad_settings() {
        let s = schedule(4, 100);
        let settings = TestSettings::offline().with_min_duration(Nanos::ZERO);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        let err =
            run_simulated_replay_traced(&settings, &s, &mut qsl, &mut sut, &NoopSink).unwrap_err();
        assert!(matches!(err, LoadGenError::BadSettings(_)));
    }

    #[test]
    fn simulated_replay_issues_exactly_the_schedule() {
        let n = 256;
        let s = schedule(n, 100);
        let settings = replay_settings(n);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(20));
        let out =
            run_simulated_replay_traced(&settings, &s, &mut qsl, &mut sut, &NoopSink).unwrap();
        assert_eq!(out.result.query_count, n as u64);
        assert!(out.result.is_valid(), "issues: {:?}", out.result.validity);
        // The recorded schedule is authoritative: scheduled times match.
        for (record, want) in out.records.iter().zip(&s.arrivals) {
            assert_eq!(record.scheduled_at, *want);
        }
    }

    #[test]
    fn simulated_replay_is_deterministic() {
        let n = 128;
        let s = schedule(n, 50);
        let settings = replay_settings(n);
        let run = || {
            let mut qsl = MemoryQsl::new("q", 16, 16);
            let mut sut = FixedLatencySut::new("s", Nanos::from_micros(20));
            run_simulated_replay_traced(&settings, &s, &mut qsl, &mut sut, &NoopSink).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.records, b.records);
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn realtime_replay_completes_and_validates() {
        let n = 24;
        let s = schedule(n, 500);
        let settings = replay_settings(n);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let sut = Arc::new(SleepSut::new("sleepy", Duration::from_micros(50)));
        let out =
            run_realtime_replay_traced_at(&settings, &s, &mut qsl, sut, &NoopSink, Instant::now())
                .unwrap();
        assert_eq!(out.result.query_count, n as u64);
        assert!(out.result.is_valid(), "issues: {:?}", out.result.validity);
    }

    #[test]
    fn replay_folds_oversized_indices_into_population() {
        let n = 8;
        let mut s = schedule(n, 100);
        // Record-time population was larger than the replay QSL.
        s.indices = (0..n).map(|i| vec![i * 1000 + 999]).collect();
        let settings = replay_settings(n);
        let mut qsl = MemoryQsl::new("q", 16, 16);
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10));
        let out =
            run_simulated_replay_traced(&settings, &s, &mut qsl, &mut sut, &NoopSink).unwrap();
        assert_eq!(out.result.query_count, n as u64);
        assert!(out.result.is_valid());
    }
}
