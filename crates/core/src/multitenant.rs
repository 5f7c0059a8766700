//! The multitenancy extension.
//!
//! Section IV-B notes the LoadGen "is extensible to support more scenarios,
//! such as a multitenancy mode where the SUT must continuously serve
//! multiple models while maintaining QoS constraints." This module
//! implements that mode for the server scenario: every tenant gets its own
//! Poisson arrival stream, seeds, latency bound, and Table V minimums, all
//! hitting *one* shared SUT; each tenant's run is scored and validated
//! independently.
//!
//! Queries carry [`Query::tenant`](crate::query::Query::tenant), and query
//! ids encode the tenant in the top byte so completions route back without
//! any side channel. The tenants' arrival streams merge on the simulated
//! clock every other DES run uses (`des::EventQueue`): each arrival event
//! carries its tenant index.

use crate::config::{TestMode, TestSettings};
use crate::des::{finish_run, EventKind, EventQueue, RunOutcome};
use crate::instrument::Instruments;
use crate::qsl::QuerySampleLibrary;
use crate::query::{Query, QuerySample};
use crate::record::Recorder;
use crate::scenario::Scenario;
use crate::sut::SimSut;
use crate::time::Nanos;
use crate::LoadGenError;
use mlperf_stats::dist::PoissonProcess;
use mlperf_stats::Rng64;
use mlperf_trace::{profile_span, MetricsRegistry, TraceEvent};

/// Bits reserved for the per-tenant sequence number inside a query id.
const TENANT_SHIFT: u32 = 56;

/// Extracts the tenant index from a multitenant query id.
pub fn tenant_of(query_id: u64) -> u32 {
    (query_id >> TENANT_SHIFT) as u32
}

struct Tenant {
    settings: TestSettings,
    arrivals: PoissonProcess,
    qsl_rng: Rng64,
    population: usize,
    issued: u64,
    recorder: Recorder,
    acc_rng: Rng64,
}

impl Tenant {
    fn next_arrival(&mut self) -> Nanos {
        Nanos::from_secs_f64(self.arrivals.next().expect("poisson process is infinite"))
    }
}

/// Runs several server-scenario streams concurrently against one SUT.
///
/// Each element of `tenants` pairs that tenant's settings with its QSL;
/// settings must use [`Scenario::Server`] and performance mode. Returns one
/// [`RunOutcome`] per tenant, in input order — a tenant is only as good as
/// its own validity, so a shared SUT that starves one model FAILS that
/// model's run even if the other sails through.
///
/// # Errors
///
/// Returns [`LoadGenError::BadSettings`] for non-server settings, more than
/// 255 tenants, or an unusable QSL, and [`LoadGenError::SutProtocol`] if
/// the SUT misroutes completions.
pub fn run_multitenant_server<Q, S>(
    tenants: &mut [(&TestSettings, &mut Q)],
    sut: &mut S,
) -> Result<Vec<RunOutcome>, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    run_multitenant_server_instrumented(tenants, sut, &Instruments::none())
}

/// [`run_multitenant_server`] with the full instrumentation bundle; the
/// plain entry point is a thin wrapper over it.
///
/// All tenants' events interleave into one trace stream in simulated-time
/// order, which is exactly what a cross-tenant timeline needs; the tenant
/// is recoverable from the query id via [`tenant_of`].
///
/// An attached [`mlperf_trace::TimeSeriesSampler`] observes the *combined*
/// load: rows are emitted as the interleaved event stream crosses interval
/// boundaries, so the time series shows cross-tenant aggregate throughput
/// and latency, not any single tenant's view. Metrics (whether a supplied
/// registry or a run-private one) aggregate across tenants the same way.
///
/// # Errors
///
/// Same contract as [`run_multitenant_server`].
pub fn run_multitenant_server_instrumented<Q, S>(
    tenants: &mut [(&TestSettings, &mut Q)],
    sut: &mut S,
    instruments: &Instruments<'_>,
) -> Result<Vec<RunOutcome>, LoadGenError>
where
    Q: QuerySampleLibrary + ?Sized,
    S: SimSut + ?Sized,
{
    profile_span!("loadgen/multitenant_run");
    let sink = instruments.sink;
    if tenants.is_empty() {
        return Err(LoadGenError::BadSettings(
            "multitenant run needs at least one tenant".into(),
        ));
    }
    if tenants.len() > 255 {
        return Err(LoadGenError::BadSettings(
            "query ids encode the tenant in one byte; at most 255 tenants".into(),
        ));
    }
    sut.reset();
    let mut states = Vec::with_capacity(tenants.len());
    for (settings, qsl) in tenants.iter_mut() {
        settings.validate()?;
        if settings.scenario != Scenario::Server || settings.mode != TestMode::PerformanceOnly {
            return Err(LoadGenError::BadSettings(
                "multitenant mode currently supports performance-mode server streams".into(),
            ));
        }
        if qsl.performance_sample_count() == 0 {
            return Err(LoadGenError::BadQsl(format!(
                "QSL {} has no samples",
                qsl.name()
            )));
        }
        let loaded: Vec<usize> = (0..qsl.performance_sample_count()).collect();
        qsl.load_samples(&loaded);
        let arrivals = PoissonProcess::new(
            settings.server_target_qps,
            Rng64::new(settings.seeds.schedule_seed),
        )
        .map_err(|e| LoadGenError::BadSettings(e.to_string()))?;
        states.push(Tenant {
            settings: (*settings).clone(),
            arrivals,
            qsl_rng: Rng64::new(settings.seeds.qsl_seed),
            population: loaded.len(),
            issued: 0,
            recorder: Recorder::new(),
            acc_rng: Rng64::new(settings.seeds.accuracy_seed),
        });
    }

    let own_registry =
        (instruments.metrics.is_none() && instruments.wants_metrics()).then(MetricsRegistry::new);
    let registry = instruments.metrics.or(own_registry.as_ref());

    let mut queue = EventQueue::new(instruments.sampler, registry);
    let mut sample_id = 0u64;
    // Prime each tenant's first arrival.
    for (t, state) in states.iter_mut().enumerate() {
        queue.schedule_arrival(state.next_arrival(), t);
    }

    let mut horizon = Nanos::ZERO;
    while let Some(event) = queue.pop()? {
        horizon = horizon.max(event.at);
        match event.kind {
            EventKind::Arrival(t) => {
                profile_span!("loadgen/mt_arrival");
                let state = &mut states[t];
                let at = event.at;
                let indices = state
                    .qsl_rng
                    .sample_with_replacement(state.population, state.settings.samples_per_query);
                let id = ((t as u64) << TENANT_SHIFT) | state.issued;
                let samples = indices
                    .into_iter()
                    .map(|index| {
                        let sid = sample_id;
                        sample_id += 1;
                        QuerySample { id: sid, index }
                    })
                    .collect();
                let query = Query {
                    id,
                    samples,
                    scheduled_at: at,
                    tenant: t as u32,
                };
                state.issued += 1;
                state.recorder.record_issue(&query, at)?;
                if let Some(m) = registry {
                    m.incr("queries_issued", 1);
                    m.incr("samples_issued", query.sample_count() as u64);
                }
                if sink.enabled() {
                    sink.record(
                        at.as_nanos(),
                        &TraceEvent::QueryIssued {
                            query_id: id,
                            sample_count: query.sample_count(),
                            delay_ns: 0,
                        },
                    );
                }
                let reaction = sut.on_query(at, &query);
                if sink.enabled() {
                    sink.record(at.as_nanos(), &TraceEvent::QuerySent { query_id: id });
                }
                queue.apply(at, reaction)?;
                let next = state.next_arrival();
                if state.issued < state.settings.min_query_count
                    || next < state.settings.min_duration
                {
                    queue.schedule_arrival(next, t);
                }
            }
            EventKind::Wakeup => {
                profile_span!("loadgen/mt_wakeup");
                let reaction = sut.on_wakeup(event.at);
                queue.apply(event.at, reaction)?;
            }
            EventKind::Completion(completion) => {
                profile_span!("loadgen/mt_completion");
                let t = tenant_of(completion.query_id) as usize;
                let state = states.get_mut(t).ok_or_else(|| {
                    LoadGenError::SutProtocol(format!("completion routed to unknown tenant {t}"))
                })?;
                let p = state.settings.accuracy_log_probability;
                let rng = &mut state.acc_rng;
                let latency = state
                    .recorder
                    .record_completion(&completion, |_| p > 0.0 && rng.next_bool(p))?;
                if completion.error {
                    if let Some(m) = registry {
                        m.incr("queries_errored", 1);
                    }
                    if sink.enabled() {
                        sink.record(
                            completion.finished_at.as_nanos(),
                            &TraceEvent::QueryErrored {
                                query_id: completion.query_id,
                                latency_ns: latency.as_nanos(),
                            },
                        );
                    }
                } else {
                    if let Some(m) = registry {
                        m.incr("queries_completed", 1);
                        m.incr("samples_completed", completion.samples.len() as u64);
                        m.observe("query_latency_ns", latency.as_nanos());
                    }
                    if sink.enabled() {
                        sink.record(
                            completion.finished_at.as_nanos(),
                            &TraceEvent::QueryCompleted {
                                query_id: completion.query_id,
                                latency_ns: latency.as_nanos(),
                            },
                        );
                    }
                }
            }
        }
    }

    if let (Some(sampler), Some(metrics)) = (instruments.sampler, registry) {
        sampler.finish(horizon.as_nanos(), metrics);
    }
    let mut outcomes = Vec::with_capacity(states.len());
    {
        profile_span!("loadgen/score");
        for (state, (_, qsl)) in states.into_iter().zip(tenants.iter_mut()) {
            // Mirror run_simulated: unload what was loaded at start.
            let loaded: Vec<usize> = (0..state.population).collect();
            qsl.unload_samples(&loaded);
            outcomes.push(finish_run(
                &state.settings,
                sut.name(),
                qsl.name(),
                state.recorder,
                sink,
                registry,
            ));
        }
    }
    sink.flush();
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qsl::MemoryQsl;
    use crate::sut::FixedLatencySut;

    fn settings(qps: f64, bound_ms: u64, count: u64) -> TestSettings {
        TestSettings::server(qps, Nanos::from_millis(bound_ms))
            .with_min_query_count(count)
            .with_min_duration(Nanos::from_millis(5))
    }

    #[test]
    fn two_light_tenants_both_valid() {
        let a = settings(200.0, 10, 300);
        let b = settings(100.0, 20, 150);
        let mut qa = MemoryQsl::new("tenant-a", 64, 64);
        let mut qb = MemoryQsl::new("tenant-b", 64, 64);
        let mut sut = FixedLatencySut::new("shared", Nanos::from_micros(100));
        let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&a, &mut qa), (&b, &mut qb)];
        let outcomes = run_multitenant_server(&mut tenants, &mut sut).unwrap();
        assert_eq!(outcomes.len(), 2);
        for (i, out) in outcomes.iter().enumerate() {
            assert!(
                out.result.is_valid(),
                "tenant {i}: {:?}",
                out.result.validity
            );
        }
        assert_eq!(outcomes[0].result.query_count, 300);
        assert_eq!(outcomes[1].result.query_count, 150);
        assert_eq!(outcomes[1].result.qsl_name, "tenant-b");
    }

    #[test]
    fn ring_buffer_preserves_order_and_monotonic_time() {
        use mlperf_trace::RingBufferSink;
        let a = settings(300.0, 10, 200);
        let b = settings(150.0, 20, 100);
        let mut qa = MemoryQsl::new("tenant-a", 64, 64);
        let mut qb = MemoryQsl::new("tenant-b", 64, 64);
        let mut sut = FixedLatencySut::new("shared", Nanos::from_micros(100));
        let sink = RingBufferSink::unbounded();
        let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&a, &mut qa), (&b, &mut qb)];
        run_multitenant_server_instrumented(&mut tenants, &mut sut, &Instruments::traced(&sink))
            .unwrap();
        let records = sink.snapshot();
        assert_eq!(sink.dropped(), 0);

        // The DES portion (query lifecycle events from both interleaved
        // tenants) must come out of the buffer in simulated-time order;
        // only the per-tenant end-of-run reports, stamped with each
        // tenant's own duration, may rewind.
        let lifecycle: Vec<&mlperf_trace::TraceRecord> = records
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::QueryIssued { .. }
                        | TraceEvent::QuerySent { .. }
                        | TraceEvent::QueryCompleted { .. }
                )
            })
            .collect();
        assert!(lifecycle.len() >= 3 * 300, "both tenants fully traced");
        assert!(
            lifecycle.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "ring buffer must preserve monotonic simulated time"
        );

        // Per query, the issue -> sent -> completed order survives, for
        // queries of both tenants.
        let mut phase: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        for r in &lifecycle {
            match r.event {
                TraceEvent::QueryIssued { query_id, .. } => {
                    assert_eq!(phase.insert(query_id, 1), None);
                }
                TraceEvent::QuerySent { query_id } => {
                    assert_eq!(phase.insert(query_id, 2), Some(1));
                }
                TraceEvent::QueryCompleted { query_id, .. } => {
                    assert_eq!(phase.insert(query_id, 3), Some(2));
                }
                _ => unreachable!(),
            }
        }
        assert!(phase.keys().any(|id| tenant_of(*id) == 0));
        assert!(phase.keys().any(|id| tenant_of(*id) == 1));
        assert!(phase.values().all(|p| *p == 3), "every query completes");
    }

    #[test]
    fn contention_hurts_the_tight_tenant() {
        // Alone, tenant A (1 ms bound, 1.8k qps, 500 us service) would be
        // marginal; with a heavy co-tenant it must fail its bound.
        let a = settings(900.0, 1, 400);
        let heavy = settings(900.0, 1_000, 400);
        let mut qa = MemoryQsl::new("a", 64, 64);
        let mut qh = MemoryQsl::new("heavy", 64, 64);
        let mut sut = FixedLatencySut::new("shared", Nanos::from_micros(500));
        let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> =
            vec![(&a, &mut qa), (&heavy, &mut qh)];
        let outcomes = run_multitenant_server(&mut tenants, &mut sut).unwrap();
        assert!(
            !outcomes[0].result.is_valid(),
            "shared contention must break the 1 ms tenant"
        );
        // The loose tenant is fine.
        assert!(
            outcomes[1].result.is_valid(),
            "{:?}",
            outcomes[1].result.validity
        );
    }

    #[test]
    fn isolation_baseline_beats_contention() {
        // p90 with a co-tenant must be no better than alone.
        let a = settings(500.0, 50, 400);
        let run_with = |co_qps: Option<f64>| {
            let mut qa = MemoryQsl::new("a", 64, 64);
            let mut sut = FixedLatencySut::new("shared", Nanos::from_micros(400));
            match co_qps {
                None => {
                    let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&a, &mut qa)];
                    run_multitenant_server(&mut tenants, &mut sut)
                        .unwrap()
                        .remove(0)
                }
                Some(qps) => {
                    let b = settings(qps, 1_000, 400);
                    let mut qb = MemoryQsl::new("b", 64, 64);
                    let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> =
                        vec![(&a, &mut qa), (&b, &mut qb)];
                    run_multitenant_server(&mut tenants, &mut sut)
                        .unwrap()
                        .remove(0)
                }
            }
        };
        let alone = run_with(None).result.latency_stats.unwrap().p90;
        let contended = run_with(Some(800.0)).result.latency_stats.unwrap().p90;
        assert!(
            contended > alone,
            "contended p90 {contended} should exceed isolated p90 {alone}"
        );
    }

    #[test]
    fn tenant_id_roundtrip() {
        assert_eq!(tenant_of((7u64 << 56) | 123), 7);
        assert_eq!(tenant_of(99), 0);
    }

    #[test]
    fn rejects_bad_configs() {
        let mut sut = FixedLatencySut::new("s", Nanos::from_micros(1));
        let mut empty: Vec<(&TestSettings, &mut MemoryQsl)> = vec![];
        assert!(run_multitenant_server(&mut empty, &mut sut).is_err());
        let offline = TestSettings::offline();
        let mut q = MemoryQsl::new("q", 8, 8);
        let mut tenants: Vec<(&TestSettings, &mut MemoryQsl)> = vec![(&offline, &mut q)];
        assert!(run_multitenant_server(&mut tenants, &mut sut).is_err());
    }
}
