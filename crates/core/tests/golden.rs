//! Golden equivalence of the discrete-event runs.
//!
//! Each case is one fixed-seed DES run. Its records are hashed field by
//! field — `(id, scheduled_at, issued_at, completed_at, sample_count,
//! skipped_intervals, error)` — followed by the sample index of every
//! accuracy-log entry; a second hash covers the detail log the run wrote
//! (timestamp and event, in emission order). The constants pin the event
//! order, the recorder's output and the trace stream, so a refactor of the
//! run loops that changes any of them fails here first.

use mlperf_loadgen::config::{TestMode, TestSettings};
use mlperf_loadgen::des::{resume_journaled, run_instrumented, run_journaled, RunOutcome};
use mlperf_loadgen::instrument::Instruments;
use mlperf_loadgen::journal::{JournalConfig, JournaledRun};
use mlperf_loadgen::multitenant::run_multitenant_server_instrumented;
use mlperf_loadgen::qsl::MemoryQsl;
use mlperf_loadgen::query::{Query, QueryCompletion, SampleCompletion};
use mlperf_loadgen::replay::{run_simulated_replay_traced, ReplaySchedule};
use mlperf_loadgen::scenario::Scenario;
use mlperf_loadgen::sut::{FixedLatencySut, SimSut, SutReaction};
use mlperf_loadgen::time::Nanos;
use mlperf_trace::codec::fnv1a64;
use mlperf_trace::RingBufferSink;

/// A timeout batcher: the first query of an idle window arms a wakeup
/// `window` later, and the wakeup finishes every queued query as one
/// batch whose service time depends on the sample indices. Exercises
/// wakeup events, batched completions and index-dependent latencies.
struct Batcher {
    window: Nanos,
    per_sample: Nanos,
    queue: Vec<Query>,
    busy_until: Nanos,
    armed: bool,
}

impl Batcher {
    fn new(window_us: u64, per_sample_us: u64) -> Self {
        Self {
            window: Nanos::from_micros(window_us),
            per_sample: Nanos::from_micros(per_sample_us),
            queue: Vec::new(),
            busy_until: Nanos::ZERO,
            armed: false,
        }
    }
}

impl SimSut for Batcher {
    fn name(&self) -> &str {
        "batcher"
    }

    fn on_query(&mut self, now: Nanos, query: &Query) -> SutReaction {
        self.queue.push(query.clone());
        if self.armed {
            return SutReaction::none();
        }
        self.armed = true;
        SutReaction {
            completions: Vec::new(),
            wakeup_at: Some(now + self.window),
        }
    }

    fn on_wakeup(&mut self, now: Nanos) -> SutReaction {
        self.armed = false;
        let weight: u64 = self
            .queue
            .iter()
            .flat_map(|q| &q.samples)
            .map(|s| 1 + (s.index % 3) as u64)
            .sum();
        let finish = now.max(self.busy_until) + self.per_sample.mul(weight);
        self.busy_until = finish;
        let completions = self
            .queue
            .drain(..)
            .map(|q| {
                let samples = q
                    .samples
                    .iter()
                    .map(|s| SampleCompletion {
                        sample_id: s.id,
                        payload: mlperf_loadgen::ResponsePayload::Class(s.index % 5),
                    })
                    .collect();
                QueryCompletion::ok(q.id, finish, samples)
            })
            .collect();
        SutReaction {
            completions,
            wakeup_at: None,
        }
    }

    fn reset(&mut self) {
        self.queue.clear();
        self.busy_until = Nanos::ZERO;
        self.armed = false;
    }
}

/// FNV-1a over every record's fields and every accuracy-log index.
fn records_digest(outcomes: &[RunOutcome]) -> u64 {
    let mut bytes = Vec::new();
    for out in outcomes {
        for r in &out.records {
            let completed = r.completed_at.map_or([0, 0], |c| [1, c.as_nanos()]);
            for v in [
                r.id,
                r.scheduled_at.as_nanos(),
                r.issued_at.as_nanos(),
                completed[0],
                completed[1],
                r.sample_count as u64,
                u64::from(r.skipped_intervals),
                u64::from(r.error),
            ] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        for logged in &out.accuracy_log {
            bytes.extend_from_slice(&(logged.sample_index as u64).to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// FNV-1a over the detail log: timestamp and event, in emission order.
fn trace_digest(sink: &RingBufferSink) -> u64 {
    let mut text = String::new();
    for r in sink.snapshot() {
        text.push_str(&format!("{} {:?}\n", r.ts_ns, r.event));
    }
    fnv1a64(text.as_bytes())
}

fn single_stream(sink: &RingBufferSink) -> Vec<RunOutcome> {
    let settings = TestSettings::single_stream()
        .with_min_query_count(64)
        .with_min_duration(Nanos::from_millis(1))
        .with_accuracy_log_probability(0.2);
    let mut qsl = MemoryQsl::new("q", 32, 32);
    let mut sut = FixedLatencySut::new("s", Nanos::from_micros(100)).with_class_payloads(7);
    vec![run_instrumented(&settings, &mut qsl, &mut sut, &Instruments::traced(sink)).unwrap()]
}

fn multistream_with_skips(sink: &RingBufferSink) -> Vec<RunOutcome> {
    // 4 samples of 1–3 weight units at 400 us each: 1.6–4.8 ms of service
    // plus the 500 us batching window against a 4 ms interval, so some
    // queries overrun and skip and others do not.
    let settings = TestSettings::multi_stream(4, Nanos::from_millis(4))
        .with_min_query_count(80)
        .with_min_duration(Nanos::from_millis(1));
    let mut qsl = MemoryQsl::new("q", 32, 32);
    let mut sut = Batcher::new(500, 400);
    let out = run_instrumented(&settings, &mut qsl, &mut sut, &Instruments::traced(sink)).unwrap();
    let skipped = out
        .records
        .iter()
        .filter(|r| r.skipped_intervals > 0)
        .count();
    assert!(
        skipped > 0 && skipped < out.records.len(),
        "{skipped} of {} queries skipped",
        out.records.len()
    );
    vec![out]
}

fn server_settings() -> TestSettings {
    TestSettings::server(2_000.0, Nanos::from_millis(10))
        .with_min_query_count(300)
        .with_min_duration(Nanos::from_millis(1))
        .with_accuracy_log_probability(0.1)
}

fn server(sink: &RingBufferSink) -> Vec<RunOutcome> {
    let mut qsl = MemoryQsl::new("q", 64, 64);
    let mut sut = Batcher::new(200, 60);
    vec![run_instrumented(
        &server_settings(),
        &mut qsl,
        &mut sut,
        &Instruments::traced(sink),
    )
    .unwrap()]
}

fn offline(sink: &RingBufferSink) -> Vec<RunOutcome> {
    let settings = TestSettings::offline()
        .with_min_duration(Nanos::from_millis(1))
        .with_offline_min_sample_count(500)
        .with_accuracy_log_probability(0.05);
    let mut qsl = MemoryQsl::new("q", 64, 64);
    let mut sut = FixedLatencySut::new("s", Nanos::from_micros(10)).with_class_payloads(3);
    vec![run_instrumented(&settings, &mut qsl, &mut sut, &Instruments::traced(sink)).unwrap()]
}

fn accuracy_mode(sink: &RingBufferSink) -> Vec<RunOutcome> {
    let settings = TestSettings::offline().with_mode(TestMode::AccuracyOnly);
    let mut qsl = MemoryQsl::new("q", 120, 16);
    let mut sut = FixedLatencySut::new("s", Nanos::from_micros(3)).with_class_payloads(7);
    vec![run_instrumented(&settings, &mut qsl, &mut sut, &Instruments::traced(sink)).unwrap()]
}

fn des_replay(sink: &RingBufferSink) -> Vec<RunOutcome> {
    let n = 200u64;
    let schedule = ReplaySchedule {
        scenario: Scenario::Server,
        arrivals: (0..n)
            .map(|i| Nanos::from_micros(i * 350 + (i * i * 37) % 300))
            .collect(),
        indices: (0..n)
            .map(|i| (0..1 + i % 3).map(|k| (i * 7 + k * 11) as usize).collect())
            .collect(),
    };
    let settings = TestSettings::server(1_000.0, Nanos::from_millis(10))
        .with_min_query_count(n)
        .with_min_duration(Nanos::ZERO)
        .with_accuracy_log_probability(0.1);
    let mut qsl = MemoryQsl::new("q", 48, 48);
    let mut sut = Batcher::new(150, 50);
    vec![run_simulated_replay_traced(&settings, &schedule, &mut qsl, &mut sut, sink).unwrap()]
}

fn journaled_server_resumed(sink: &RingBufferSink) -> Vec<RunOutcome> {
    let path = std::env::temp_dir().join(format!("mlperf_golden_{}.mlpj", std::process::id()));
    let cfg = JournalConfig::new(&path).with_checkpoint_every(8);
    let settings = server_settings();
    let mut qsl = MemoryQsl::new("q", 64, 64);
    let mut sut = Batcher::new(200, 60);
    let halted = run_journaled(
        &settings,
        &mut qsl,
        &mut sut,
        &Instruments::none(),
        &cfg.clone().with_halt_after(1),
    )
    .unwrap();
    assert!(matches!(halted, JournaledRun::Halted { checkpoint: 1 }));
    let mut qsl = MemoryQsl::new("q", 64, 64);
    let mut sut = Batcher::new(200, 60);
    let out = resume_journaled(
        &settings,
        &mut qsl,
        &mut sut,
        &Instruments::traced(sink),
        &cfg,
    )
    .unwrap()
    .finished()
    .expect("resume runs to completion");
    std::fs::remove_file(&path).ok();
    vec![out]
}

fn two_tenants(sink: &RingBufferSink) -> Vec<RunOutcome> {
    let a = TestSettings::server(300.0, Nanos::from_millis(10))
        .with_min_query_count(200)
        .with_min_duration(Nanos::from_millis(5))
        .with_accuracy_log_probability(0.1);
    let b = TestSettings::server(150.0, Nanos::from_millis(20))
        .with_min_query_count(100)
        .with_min_duration(Nanos::from_millis(5))
        .with_accuracy_log_probability(0.2);
    let mut qa = MemoryQsl::new("tenant-a", 64, 64);
    let mut qb = MemoryQsl::new("tenant-b", 32, 32);
    let mut sut = Batcher::new(300, 80);
    let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&a, &mut qa), (&b, &mut qb)];
    run_multitenant_server_instrumented(&mut tenants, &mut sut, &Instruments::traced(sink)).unwrap()
}

type Case = (
    &'static str,
    fn(&RingBufferSink) -> Vec<RunOutcome>,
    u64,
    u64,
);

/// `(name, run, records digest, trace digest)`.
const CASES: [Case; 8] = [
    (
        "single-stream",
        single_stream,
        0xee741d9154b79a4a,
        0x7d3297fe390425df,
    ),
    (
        "multistream-skips",
        multistream_with_skips,
        0x4d234b36a7bfafba,
        0x73c197816133ce82,
    ),
    ("server", server, 0x8be12e5dde52e9aa, 0x81f40d29ead6b049),
    ("offline", offline, 0x44d8d255cc280099, 0xbf4d4ae762572aeb),
    (
        "accuracy-mode",
        accuracy_mode,
        0xf3ac56741bc55043,
        0x0bb3c290f4b6557f,
    ),
    (
        "des-replay",
        des_replay,
        0xdb7c1eec5fe6c731,
        0x516a955559e88c1e,
    ),
    (
        "journaled-server-resumed",
        journaled_server_resumed,
        0x2fa857c6873279b0,
        0x347ee739bd2f6d8e,
    ),
    (
        "two-tenants",
        two_tenants,
        0x0c87bb475d52c3eb,
        0x5f59bf33e55eb24f,
    ),
];

#[test]
fn des_runs_match_their_golden_digests() {
    let mut mismatches = Vec::new();
    for (name, run, want_records, want_trace) in CASES {
        let sink = RingBufferSink::unbounded();
        let outcomes = run(&sink);
        assert!(
            outcomes.iter().all(|o| !o.records.is_empty()),
            "{name}: empty run"
        );
        let got = (records_digest(&outcomes), trace_digest(&sink));
        if got != (want_records, want_trace) {
            mismatches.push(format!(
                "(\"{name}\", .., {:#018x}, {:#018x})",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}
