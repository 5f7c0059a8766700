//! End-to-end loopback tests: LoadGen driving a remote SUT through a real
//! TCP connection on 127.0.0.1, including every failure path the protocol
//! promises to surface as a structured verdict instead of a hang.

use std::io::Write;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use mlperf_loadgen::config::TestSettings;
use mlperf_loadgen::qsl::{MemoryQsl, QuerySampleLibrary};
use mlperf_loadgen::realtime::run_realtime;
use mlperf_loadgen::sut::{FixedLatencySut, IssueOutcome, RealtimeSut, SleepSut};
use mlperf_loadgen::time::Nanos;
use mlperf_loadgen::validate::ValidityIssue;
use mlperf_loadgen::Query;
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_trace::RingBufferSink;
use mlperf_wire::frame::{read_frame, write_frame};
use mlperf_wire::message::{Hello, Message, PROTOCOL_VERSION};
use mlperf_wire::{
    loopback, loopback_instrumented, serve_on, RemoteSut, RemoteSutConfig, ServeConfig,
    SilentDropService, SimHost, WireChaosPlan, WireError,
};

fn hello_for(settings: &TestSettings, qsl: &MemoryQsl, config: &RemoteSutConfig) -> Hello {
    RemoteSut::hello_for(settings, qsl.total_sample_count() as u64, config)
}

#[test]
fn loopback_offline_run_is_valid() {
    let settings = TestSettings::offline()
        .with_min_duration(Nanos::from_micros(1))
        .with_offline_min_sample_count(64);
    let mut qsl = MemoryQsl::new("loop-qsl", 32, 32);
    let config = RemoteSutConfig::default();
    let hello = hello_for(&settings, &qsl, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "remote-dev",
        Nanos::from_micros(5),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");
    assert_eq!(RealtimeSut::name(&client), "remote-dev");

    let out = run_realtime(&settings, &mut qsl, Arc::new(client)).expect("run");
    assert!(out.result.is_valid(), "{:?}", out.result.validity);
    assert!(out.result.sample_count >= 64);
    assert!(server.served() >= 1);
    server.shutdown();
}

#[test]
fn loopback_single_stream_collects_wire_metrics() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(20)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("loop-qsl", 16, 16);
    let config = RemoteSutConfig::default();
    let hello = hello_for(&settings, &qsl, &config);
    let sink = Arc::new(RingBufferSink::new(4096));
    let metrics = Arc::new(MetricsRegistry::new());
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "remote-dev",
        Nanos::from_micros(10),
    )));
    let (client, server) = loopback_instrumented(
        service,
        ServeConfig::default(),
        hello,
        config,
        Some(sink.clone()),
        Some(metrics.clone()),
    )
    .expect("loopback");

    let out = run_realtime(&settings, &mut qsl, Arc::new(client)).expect("run");
    assert!(out.result.is_valid(), "{:?}", out.result.validity);

    let snapshot = metrics.snapshot();
    let frames = snapshot
        .counters
        .get("wire_frames_sent")
        .copied()
        .unwrap_or(0);
    assert!(frames >= 20, "expected >=20 frames sent, saw {frames}");
    let rtt = snapshot
        .histograms
        .get("wire_rtt_ns")
        .expect("wire_rtt_ns histogram");
    assert!(rtt.count() >= 20, "expected >=20 RTT observations");
    assert!(snapshot.histograms.contains_key("wire_encode_ns"));
    server.shutdown();
}

#[test]
fn killing_the_server_mid_run_yields_structured_invalid() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(200)
        .with_min_duration(Nanos::from_millis(50));
    let mut qsl = MemoryQsl::new("loop-qsl", 16, 16);
    // Short response timeout so even a query caught mid-flight resolves
    // quickly; the disconnect path itself is immediate.
    let config = RemoteSutConfig::default().with_response_timeout(Duration::from_millis(500));
    let hello = hello_for(&settings, &qsl, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "doomed",
        Nanos::from_micros(200),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");
    let server = Arc::new(server);

    let killer = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            server.kill();
        })
    };

    let out = run_realtime(&settings, &mut qsl, Arc::new(client)).expect("run must not hang");
    killer.join().unwrap();
    assert!(!out.result.is_valid(), "a killed server cannot yield VALID");
    assert!(
        out.result.validity.iter().any(|i| matches!(
            i,
            ValidityIssue::ErrorFractionExceeded { .. } | ValidityIssue::IncompleteQueries { .. }
        )),
        "expected an error-fraction or incomplete-queries verdict, got {:?}",
        out.result.validity
    );
}

#[test]
fn version_mismatch_is_rejected() {
    let settings = TestSettings::single_stream();
    let qsl = MemoryQsl::new("loop-qsl", 4, 4);
    let config = RemoteSutConfig::default();
    let mut hello = hello_for(&settings, &qsl, &config);
    hello.version = PROTOCOL_VERSION + 1;
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "strict",
        Nanos::from_micros(1),
    )));
    let err =
        loopback(service, ServeConfig::default(), hello, config).expect_err("handshake must fail");
    assert!(
        matches!(err, WireError::Rejected(_)),
        "expected Rejected, got {err:?}"
    );
}

#[test]
fn heartbeat_loss_fails_pending_queries_instead_of_hanging() {
    // A hand-rolled zombie server: completes the handshake, then reads
    // and discards every frame — no completions, no heartbeat acks. The
    // socket stays open, so only the heartbeat monitor can notice.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let zombie = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let _hello = read_frame(&mut stream).expect("hello frame");
        let ack = Message::HelloAck {
            version: PROTOCOL_VERSION,
            sut_name: "zombie".to_string(),
            max_in_flight: 4,
        };
        write_frame(&mut stream, &ack.to_wire()).expect("ack");
        stream.flush().ok();
        while read_frame(&mut stream).is_ok() {}
    });

    let settings = TestSettings::single_stream();
    let qsl = MemoryQsl::new("loop-qsl", 4, 4);
    let config = RemoteSutConfig::default()
        .with_heartbeat(Duration::from_millis(10), Duration::from_millis(80))
        .with_response_timeout(Duration::from_secs(30));
    let hello = hello_for(&settings, &qsl, &config);
    let client = RemoteSut::connect(addr, hello, config).expect("handshake");

    let query = Query {
        id: 1,
        samples: vec![mlperf_loadgen::QuerySample { id: 10, index: 0 }],
        scheduled_at: Nanos::ZERO,
        tenant: 0,
    };
    let started = std::time::Instant::now();
    let outcome = client.issue_outcome(&query);
    assert_eq!(outcome, IssueOutcome::Errored, "heartbeat loss => errored");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "heartbeat loss must beat the 30s response timeout"
    );
    assert!(!client.is_connected());
    client.shutdown();
    zombie.join().unwrap();
}

#[test]
fn heartbeat_loss_run_ends_error_fraction_exceeded_not_a_hang() {
    // Deterministic heartbeat loss: a one-way recv partition after the
    // handshake's HelloAck. The server keeps answering — the client's
    // chaos layer discards every inbound frame, so no completions and no
    // heartbeat acks arrive. The heartbeat monitor must fail the run as
    // *errored* (the socket is provably alive, the peer just isn't
    // answering) well inside the 5 s response timeout.
    let settings = TestSettings::single_stream()
        .with_min_query_count(5)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("loop-qsl", 8, 8);
    let config = RemoteSutConfig::default()
        .with_heartbeat(Duration::from_millis(10), Duration::from_millis(60))
        .with_response_timeout(Duration::from_secs(5))
        .with_chaos(WireChaosPlan::new(0xBEA7).with_partition_recv_after(1));
    let hello = hello_for(&settings, &qsl, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "muted",
        Nanos::from_micros(50),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");

    let started = std::time::Instant::now();
    let out = run_realtime(&settings, &mut qsl, Arc::new(client)).expect("run must not hang");
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "heartbeat loss must resolve the run well before the response timeout"
    );
    assert!(!out.result.is_valid());
    assert!(
        out.result
            .validity
            .iter()
            .any(|i| matches!(i, ValidityIssue::ErrorFractionExceeded { .. })),
        "heartbeat loss must surface as error fraction, got {:?}",
        out.result.validity
    );
    server.shutdown();
}

#[test]
fn daemon_shutdown_joins_threads_and_releases_the_port() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(5)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("loop-qsl", 8, 8);
    let config = RemoteSutConfig::default();
    let hello = hello_for(&settings, &qsl, &config);
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "short-lived",
        Nanos::from_micros(5),
    )));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");
    let addr = server.addr();

    let out = run_realtime(&settings, &mut qsl, Arc::new(client)).expect("run");
    assert!(out.result.is_valid(), "{:?}", out.result.validity);
    // `run_realtime` consumed (and dropped) the client, so its Drain
    // already closed the connection; shutdown must reap every thread and
    // the listener so the exact same port binds again.
    server.shutdown();

    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "second-tenant",
        Nanos::from_micros(5),
    )));
    let second = serve_on(&addr.to_string(), service, ServeConfig::default())
        .expect("the port must be rebindable immediately after shutdown");
    assert_eq!(second.addr(), addr);
    second.shutdown();
}

#[test]
fn silently_dropped_queries_vanish_and_stay_outstanding() {
    let settings = TestSettings::single_stream()
        .with_min_query_count(5)
        .with_min_duration(Nanos::from_micros(1));
    let mut qsl = MemoryQsl::new("loop-qsl", 8, 8);
    let config = RemoteSutConfig::default().with_response_timeout(Duration::from_millis(100));
    let hello = hello_for(&settings, &qsl, &config);
    // Drop everything: every query vanishes, none completes.
    let service = Arc::new(SilentDropService::new(
        SleepSut::new("cheater", Duration::ZERO),
        1.0,
        13,
    ));
    let (client, server) =
        loopback(service, ServeConfig::default(), hello, config).expect("loopback");

    let out = run_realtime(&settings, &mut qsl, Arc::new(client)).expect("run must not hang");
    assert!(!out.result.is_valid());
    assert!(
        out.result
            .validity
            .iter()
            .any(|i| matches!(i, ValidityIssue::IncompleteQueries { .. })),
        "silent drops must surface as incomplete queries, got {:?}",
        out.result.validity
    );
    server.shutdown();
}

/// Protocol v2 is retired: a `Hello` offering version 2 gets a `Reject`
/// naming both versions, never an ack.
#[test]
fn hello_at_version_2_is_rejected() {
    let settings = TestSettings::single_stream();
    let qsl = MemoryQsl::new("loop-qsl", 4, 4);
    let mut hello = hello_for(&settings, &qsl, &RemoteSutConfig::default());
    hello.version = 2;
    let service = Arc::new(SimHost::new(FixedLatencySut::new(
        "strict",
        Nanos::from_micros(1),
    )));
    let server = serve_on("127.0.0.1:0", service, ServeConfig::default()).expect("serve");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, &Message::Hello(hello).to_wire()).expect("hello");
    let reply = Message::from_wire(&read_frame(&mut stream).expect("reply")).expect("decodes");
    match reply {
        Message::Reject { reason } => assert!(
            reason.contains(&format!("server v{PROTOCOL_VERSION}, client v2")),
            "{reason}"
        ),
        other => panic!("expected Reject, got {other:?}"),
    }
    server.shutdown();
}
