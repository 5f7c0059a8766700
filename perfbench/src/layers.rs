//! Timing decorators around the program's public layer boundaries.
//!
//! The traced run splits each end-to-end figure across layers by wrapping
//! the trait objects the program already exchanges: [`TimedSim`] around
//! the simulated device ([`SimSut`]), [`TimedSink`] around the detail-log
//! sink ([`TraceSink`]), [`CallTimer`] around a wall-clock SUT
//! ([`RealtimeSut`], both what the LoadGen drives and each shard behind a
//! router), and [`FreeService`], the zero-cost daemon service, which can
//! stamp its own entry and exit. Nothing here changes what the wrapped
//! layer does; the decorators only read the clock and count.

use mlperf_loadgen::query::{Query, ResponsePayload, SampleCompletion};
use mlperf_loadgen::sut::{IssueOutcome, RealtimeSut, SimSut, SutReaction};
use mlperf_loadgen::time::Nanos;
use mlperf_trace::{TraceEvent, TraceSink};
use mlperf_wire::{ServedReply, WireService};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

thread_local! {
    /// Set while a [`TimedSim`] call is running, so [`TimedSink`] can tell
    /// the device's own events from the LoadGen loop's.
    static IN_ENGINE: Cell<bool> = const { Cell::new(false) };
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Times every call into a simulated device.
#[derive(Debug)]
pub struct TimedSim<S> {
    inner: S,
    /// Nanoseconds spent in `on_query`.
    pub query_ns: u64,
    /// Nanoseconds spent in `on_wakeup`.
    pub wakeup_ns: u64,
    /// Calls of either kind.
    pub calls: u64,
}

impl<S: SimSut> TimedSim<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            query_ns: 0,
            wakeup_ns: 0,
            calls: 0,
        }
    }

    /// Total nanoseconds inside the device.
    pub fn total_ns(&self) -> u64 {
        self.query_ns + self.wakeup_ns
    }

    fn timed(&mut self, call: impl FnOnce(&mut S) -> SutReaction) -> (SutReaction, u64) {
        IN_ENGINE.with(|f| f.set(true));
        let start = Instant::now();
        let reaction = call(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        IN_ENGINE.with(|f| f.set(false));
        self.calls += 1;
        (reaction, ns)
    }
}

impl<S: SimSut> SimSut for TimedSim<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        let (reaction, ns) = self.timed(|s| s.on_query(now, query));
        self.query_ns += ns;
        reaction
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        let (reaction, ns) = self.timed(|s| s.on_wakeup(now));
        self.wakeup_ns += ns;
        reaction
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Times every record into a trace sink, split by whether the device
/// (inside a [`TimedSim`] call) or the LoadGen loop wrote it.
pub struct TimedSink {
    inner: Arc<dyn TraceSink>,
    loop_ns: AtomicU64,
    engine_ns: AtomicU64,
    events: AtomicU64,
}

impl TimedSink {
    pub fn new(inner: Arc<dyn TraceSink>) -> Self {
        Self {
            inner,
            loop_ns: AtomicU64::new(0),
            engine_ns: AtomicU64::new(0),
            events: AtomicU64::new(0),
        }
    }

    /// Nanoseconds recording events written by the LoadGen loop.
    pub fn loop_ns(&self) -> u64 {
        self.loop_ns.load(Ordering::Relaxed)
    }

    /// Nanoseconds recording events written from inside the device.
    pub fn engine_ns(&self) -> u64 {
        self.engine_ns.load(Ordering::Relaxed)
    }

    /// Events recorded.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

impl TraceSink for TimedSink {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, ts_ns: u64, event: &TraceEvent) {
        let start = Instant::now();
        self.inner.record(ts_ns, event);
        let ns = start.elapsed().as_nanos() as u64;
        let bucket = if IN_ENGINE.with(Cell::get) {
            &self.engine_ns
        } else {
            &self.loop_ns
        };
        bucket.fetch_add(ns, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

/// One call through a [`CallTimer`], in nanoseconds since its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallStamp {
    pub query_id: u64,
    pub scheduled_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Stamps the start and end of every call into a wall-clock SUT and keeps
/// the number of calls in flight.
pub struct CallTimer {
    inner: Arc<dyn RealtimeSut>,
    origin: Instant,
    stamps: Mutex<Vec<CallStamp>>,
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
}

impl CallTimer {
    pub fn new(inner: Arc<dyn RealtimeSut>, origin: Instant) -> Self {
        Self {
            inner,
            origin,
            stamps: Mutex::new(Vec::new()),
            in_flight: AtomicUsize::new(0),
            max_in_flight: AtomicUsize::new(0),
        }
    }

    /// Every call so far, in completion order.
    pub fn stamps(&self) -> Vec<CallStamp> {
        self.stamps.lock().expect("call stamps poisoned").clone()
    }

    /// The most calls that were ever in flight at once.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight.load(Ordering::SeqCst)
    }
}

impl RealtimeSut for CallTimer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn issue(&self, query: &Query) -> Vec<SampleCompletion> {
        match self.issue_outcome(query) {
            IssueOutcome::Completed(samples) => samples,
            _ => echo(query),
        }
    }

    fn issue_outcome(&self, query: &Query) -> IssueOutcome {
        let start_ns = ns_since(self.origin);
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_in_flight.fetch_max(now, Ordering::SeqCst);
        let outcome = self.inner.issue_outcome(query);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        let end_ns = ns_since(self.origin);
        self.stamps
            .lock()
            .expect("call stamps poisoned")
            .push(CallStamp {
                query_id: query.id,
                scheduled_ns: query.scheduled_at.as_nanos(),
                start_ns,
                end_ns,
            });
        outcome
    }
}

fn echo(query: &Query) -> Vec<SampleCompletion> {
    query
        .samples
        .iter()
        .map(|s| SampleCompletion {
            sample_id: s.id,
            payload: ResponsePayload::Empty,
        })
        .collect()
}

/// A daemon service that answers every query at once with its own sample
/// ids. Once given an origin it also stamps when each query entered and
/// left the service.
#[derive(Default)]
pub struct FreeService {
    origin: OnceLock<Instant>,
    stamps: Mutex<HashMap<u64, (u64, u64)>>,
}

impl FreeService {
    /// Starts stamping entry and exit against `origin`.
    pub fn start_stamping(&self, origin: Instant) {
        let _ = self.origin.set(origin);
    }

    /// Query id → (entry, exit) nanoseconds since the origin.
    pub fn stamps(&self) -> HashMap<u64, (u64, u64)> {
        self.stamps.lock().expect("service stamps poisoned").clone()
    }
}

impl WireService for FreeService {
    fn name(&self) -> &str {
        "free-service"
    }

    fn serve(&self, query: &Query) -> Option<ServedReply> {
        let Some(&origin) = self.origin.get() else {
            return Some(ServedReply {
                samples: echo(query),
                error: false,
            });
        };
        let entry = ns_since(origin);
        let samples = echo(query);
        let exit = ns_since(origin);
        self.stamps
            .lock()
            .expect("service stamps poisoned")
            .insert(query.id, (entry, exit));
        Some(ServedReply {
            samples,
            error: false,
        })
    }
}
