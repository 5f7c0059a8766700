//! The daemon-side endpoint: [`serve`] and [`ServerHandle`].
//!
//! `serve` exports any [`WireService`] over a TCP listener. Each accepted
//! connection performs the versioned handshake, then runs a worker pool
//! (one worker per connection by default) pulling issue frames off the
//! socket, resolving them through the service, and writing completion
//! frames back. Clock probes (the client's heartbeats) are answered
//! inline; `Drain` waits for the connection's outstanding queries to
//! resolve, then answers `Goodbye` and closes.
//!
//! Connections belong to **sessions** (the `session` id in the `Hello`).
//! A session outlives its connections: it keeps a journal of every
//! resolved query and the set still in progress, so a client that loses
//! its link mid-run can reconnect at a bumped epoch and replay its
//! in-flight window. Replayed queries that already resolved are answered
//! straight from the journal — served exactly once, never re-run and
//! never double-counted. Epoch 0 always starts the session (and the
//! service) fresh.
//!
//! [`ServerHandle::kill`] exists for resilience testing: it severs every
//! live connection abruptly — the moral equivalent of yanking the
//! machine's power cord mid-run — so clients exercise their disconnect
//! path. [`ServerHandle::shutdown`] is the opposite: it stops accepting,
//! severs what remains, and joins every accept, connection, and worker
//! thread, so the port is immediately rebindable.

use std::collections::{HashMap, HashSet};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mlperf_loadgen::query::{Query, SampleCompletion};
use mlperf_trace::event::{RingBufferSink, TraceEvent, TraceSink};
use mlperf_trace::json::ToJson;
use mlperf_trace::metrics::MetricsRegistry;
use mlperf_trace::JournalWriter;

use crate::message::{Message, PROTOCOL_VERSION};
use crate::service::WireService;
use crate::stats::DaemonStats;
use crate::transport::{ChaosSession, TcpTransport, Transport, WireChaosPlan};

/// Server-side spans retained per session for shipping at drain. Bounded:
/// a pathological run keeps the freshest tail, which is what a post-mortem
/// wants anyway.
const SESSION_EVENT_CAPACITY: usize = 65_536;

/// `TraceRecord` rows per `Events` frame at drain. Keeps every frame far
/// under the 64 MiB frame ceiling.
const EVENTS_CHUNK: usize = 256;

/// `fsync` batching window for session journals. Completions lost in the
/// unsynced tail of a killed daemon simply re-run on resume (the service
/// is deterministic per query), so batching trades a bounded amount of
/// re-execution for not paying an `fsync` per completion.
const JOURNAL_FSYNC_BATCH: u32 = 8;

/// Tuning knobs for a serving daemon.
#[derive(Clone, Default)]
pub struct ServeConfig {
    /// Workers resolving queries per connection. `0` means one.
    pub workers_per_conn: usize,
    /// Optional sink receiving server-side `WireEvent`s
    /// (connect, reject, drain, disconnect, replay).
    pub sink: Option<Arc<dyn TraceSink>>,
    /// Server-side wire chaos plan, for fault-injection testing. `None`
    /// (or a disarmed plan) leaves every transport untouched.
    pub chaos: Option<WireChaosPlan>,
    /// Metrics registry backing the daemon's `Stats` snapshots. A default
    /// registry is created when not provided, so stats always work.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Daemon-assigned shard label. When set, server-side spans carry it
    /// as their `host` (so a merged fleet log attributes work per shard)
    /// and `Stats` snapshots report it; when `None` the daemon is a
    /// plain single host named `server`.
    pub shard_label: Option<String>,
    /// Directory for durable per-session completion journals. When set,
    /// every resolved query is appended (wire-codec bytes in an `MLPJ`
    /// frame) to `session_<id>.mlpj` before its completion frame is sent,
    /// and a restarted daemon re-adopts a session's journal when a client
    /// reconnects at a nonzero epoch — completions recorded before the
    /// crash are answered from disk, never re-run. `None` (the default)
    /// keeps session journals in memory only, as before.
    pub journal_dir: Option<PathBuf>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("workers_per_conn", &self.workers_per_conn)
            .field("sink", &self.sink.is_some())
            .field("chaos", &self.chaos)
            .field("metrics", &self.metrics.is_some())
            .field("shard_label", &self.shard_label)
            .field("journal_dir", &self.journal_dir)
            .finish()
    }
}

impl ServeConfig {
    /// Overrides the per-connection worker count.
    #[must_use]
    pub fn with_workers_per_conn(mut self, n: usize) -> Self {
        self.workers_per_conn = n;
        self
    }

    /// Attaches a trace sink for server-side wire events.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Arms a server-side wire chaos plan.
    #[must_use]
    pub fn with_chaos(mut self, plan: WireChaosPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Shares a metrics registry with the daemon (exposed via `Stats`).
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Names this daemon's shard within a fleet (span host + `Stats`).
    #[must_use]
    pub fn with_shard_label(mut self, label: &str) -> Self {
        self.shard_label = Some(label.to_string());
        self
    }

    /// Persists per-session completion journals under `dir`, making the
    /// daemon's exactly-once replay guarantee survive a daemon restart.
    #[must_use]
    pub fn with_journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }
}

/// wire query id → resolved reply `(error, samples)`, kept for journal
/// replay within a session and recovered from disk across daemon restarts.
type CompletionMap = HashMap<u64, (bool, Vec<SampleCompletion>)>;

/// Everything a session remembers across connections, under one lock so a
/// completion can never fall between "no longer in progress" and "not yet
/// journaled".
struct SessionBook {
    /// wire query id → resolved reply, kept for journal replay.
    journal: CompletionMap,
    /// Queries handed to workers but not yet resolved.
    in_progress: HashSet<u64>,
    /// Durable mirror of `journal`, when the daemon has a journal dir:
    /// completions are appended (as wire-codec `Completion` frames) under
    /// the same lock that updates the map, so the disk image can never
    /// miss an entry the memory image has acknowledged.
    disk: Option<JournalWriter>,
}

/// One logical client run. Connections come and go (each at a distinct
/// epoch); the session's journal, worker pool, and outstanding counter
/// persist until the run drains cleanly or the daemon shuts down.
struct Session {
    book: Mutex<SessionBook>,
    /// Outstanding = queries accepted but not yet resolved; `Drain` waits
    /// on this.
    outstanding: (Mutex<usize>, Condvar),
    /// The live connection's writer half, tagged with its epoch so a dead
    /// connection's epilogue cannot clear a successor's writer.
    writer: Mutex<Option<(u32, Box<dyn Transport>)>>,
    work_tx: Mutex<Option<mpsc::Sender<WorkItem>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Server-side queue/compute spans for every query, shipped to
    /// the client at drain so one run yields one merged detail log.
    events: Arc<RingBufferSink>,
    /// The on-disk journal path, kept so a cleanly drained session can
    /// delete its file (the run is over; nothing is left to resume).
    disk_path: Option<PathBuf>,
}

/// One query handed to the worker pool, with its trace context and the
/// server-clock instant it entered the queue.
struct WorkItem {
    query: Query,
    trace_id: u64,
    enqueued_ns: u64,
}

impl Session {
    /// Sends one frame on the session's current writer, if any. Errors are
    /// swallowed: the journal preserves the reply for the next epoch.
    fn send(&self, msg: &Message) {
        let payload = msg.to_wire();
        let mut guard = self.writer.lock().expect("session writer poisoned");
        if let Some((_, transport)) = guard.as_mut() {
            let _ = transport.send(&payload);
        }
    }

    /// Drops the work queue, joins the workers, and closes the writer.
    fn retire(&self) {
        self.work_tx
            .lock()
            .expect("session work_tx poisoned")
            .take();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("session workers poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some((_, transport)) = self.writer.lock().expect("session writer poisoned").take() {
            transport.shutdown();
        }
    }
}

struct ServerShared {
    stop: AtomicBool,
    served: AtomicU64,
    conns: Mutex<Vec<TcpStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    chaos: Option<Arc<ChaosSession>>,
    sink: Option<Arc<dyn TraceSink>>,
    metrics: Arc<MetricsRegistry>,
    start: Instant,
    /// `host` label stamped on server-side spans: the shard label when
    /// this daemon is part of a fleet, else `server`.
    host_label: String,
    /// Daemon-assigned shard label for `Stats` (empty = not sharded).
    shard: String,
    /// Directory for durable session journals (`None` = memory only).
    journal_dir: Option<PathBuf>,
}

impl ServerShared {
    /// Nanoseconds since the daemon started — the server's span clock.
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn wire_event(&self, kind: &str, query_id: u64, detail: &str) {
        if let Some(sink) = &self.sink {
            if sink.enabled() {
                sink.record(
                    self.now_ns(),
                    &TraceEvent::WireEvent {
                        endpoint: "server".to_string(),
                        kind: kind.to_string(),
                        query_id,
                        detail: detail.to_string(),
                    },
                );
            }
        }
    }
}

/// Handle to a running daemon. Dropping the handle does *not* stop the
/// daemon; call [`ServerHandle::shutdown`] (graceful) or
/// [`ServerHandle::kill`] (abrupt).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the daemon is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queries resolved across all connections so far.
    pub fn served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Severs every live connection abruptly, without drain or goodbye —
    /// simulates the serving machine dying mid-run. The listener also
    /// stops accepting. No threads are joined; pair with
    /// [`ServerHandle::shutdown`] to reap them.
    pub fn kill(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let conns = self.shared.conns.lock().expect("server conns poisoned");
        for conn in conns.iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        self.shared.wire_event("kill", 0, "all connections severed");
        self.unblock_accept();
    }

    /// Stops accepting, severs any connection still open, and joins the
    /// accept thread, every connection thread, and every session's worker
    /// pool. When this returns the daemon holds no threads and no
    /// sockets — the port can be rebound immediately.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.unblock_accept();
        if let Some(handle) = self.accept.lock().expect("accept handle poisoned").take() {
            let _ = handle.join();
        }
        {
            let conns = self.shared.conns.lock().expect("server conns poisoned");
            for conn in conns.iter() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        let conn_threads: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .shared
                .conn_threads
                .lock()
                .expect("server conn threads poisoned"),
        );
        for handle in conn_threads {
            let _ = handle.join();
        }
        let sessions: Vec<Arc<Session>> = self
            .shared
            .sessions
            .lock()
            .expect("server sessions poisoned")
            .drain()
            .map(|(_, s)| s)
            .collect();
        for session in sessions {
            session.retire();
        }
        self.shared
            .conns
            .lock()
            .expect("server conns poisoned")
            .clear();
    }

    /// The accept loop blocks in `accept()`; poke it with a throwaway
    /// connection so it notices the stop flag.
    fn unblock_accept(&self) {
        let _ = TcpStream::connect(self.addr);
    }
}

/// Starts a daemon exporting `service` on `listener`.
///
/// Returns immediately; connections are handled on background threads.
///
/// # Errors
///
/// Returns [`WireError::Io`](crate::WireError::Io) if the listener's local address cannot be
/// resolved or the accept thread cannot spawn.
pub fn serve(
    listener: TcpListener,
    service: Arc<dyn WireService>,
    config: ServeConfig,
) -> Result<ServerHandle, crate::frame::WireError> {
    let addr = listener.local_addr()?;
    let chaos = config
        .chaos
        .clone()
        .map(|plan| Arc::new(ChaosSession::new(plan, "server", config.sink.clone())));
    let shared = Arc::new(ServerShared {
        stop: AtomicBool::new(false),
        served: AtomicU64::new(0),
        conns: Mutex::new(Vec::new()),
        conn_threads: Mutex::new(Vec::new()),
        sessions: Mutex::new(HashMap::new()),
        chaos,
        sink: config.sink.clone(),
        metrics: config
            .metrics
            .clone()
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new())),
        start: Instant::now(),
        host_label: config
            .shard_label
            .clone()
            .unwrap_or_else(|| "server".to_string()),
        shard: config.shard_label.clone().unwrap_or_default(),
        journal_dir: config.journal_dir.clone(),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        let workers = config.workers_per_conn.max(1);
        std::thread::Builder::new()
            .name("wire-accept".to_string())
            .spawn(move || accept_loop(&listener, &service, workers, &shared))
            .map_err(crate::frame::WireError::Io)?
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept: Mutex::new(Some(accept)),
    })
}

/// Binds `addr` and starts a daemon on it. `"127.0.0.1:0"` picks a free
/// port; read it back from [`ServerHandle::addr`].
///
/// # Errors
///
/// Returns [`WireError::Io`](crate::WireError::Io) if the bind fails, plus [`serve`]'s failures.
pub fn serve_on(
    addr: &str,
    service: Arc<dyn WireService>,
    config: ServeConfig,
) -> Result<ServerHandle, crate::frame::WireError> {
    serve(TcpListener::bind(addr)?, service, config)
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<dyn WireService>,
    workers: usize,
    shared: &Arc<ServerShared>,
) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => return,
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        {
            let mut conns = shared.conns.lock().expect("server conns poisoned");
            if let Ok(clone) = stream.try_clone() {
                conns.push(clone);
            }
        }
        shared.wire_event("connect", 0, &peer.to_string());
        let service = Arc::clone(service);
        let shared_t = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("wire-conn-{peer}"))
            .spawn(move || {
                handle_conn(stream, &service, workers, &shared_t);
                shared_t.wire_event("disconnect", 0, &peer.to_string());
            });
        if let Ok(handle) = handle {
            shared
                .conn_threads
                .lock()
                .expect("server conn threads poisoned")
                .push(handle);
        }
    }
}

/// Opens (or, on resume, re-adopts) a session's durable journal. Returns
/// the writer, the path, and the completion map recovered from disk —
/// empty unless `resume` found a journal left by a previous daemon
/// process. Disk failures degrade to a memory-only session: the run
/// proceeds, it just cannot survive another daemon death.
fn open_session_disk(
    shared: &ServerShared,
    session_id: u64,
    resume: bool,
) -> (Option<JournalWriter>, Option<PathBuf>, CompletionMap) {
    let mut recovered = HashMap::new();
    let Some(dir) = &shared.journal_dir else {
        return (None, None, recovered);
    };
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("session_{session_id:016x}.mlpj"));
    let writer = if resume && path.exists() {
        match JournalWriter::open_append(&path, JOURNAL_FSYNC_BATCH) {
            Ok((writer, scan)) => {
                for frame in &scan.records {
                    if let Ok(Message::Completion {
                        query_id,
                        error,
                        samples,
                    }) = Message::from_wire(frame)
                    {
                        recovered.insert(query_id, (error, samples));
                    }
                }
                if let Some(torn) = &scan.torn {
                    shared.wire_event("journal_salvage", 0, &torn.to_string());
                }
                shared.wire_event(
                    "journal_recover",
                    0,
                    &format!("session={session_id:#x} completions={}", recovered.len()),
                );
                Some(writer)
            }
            Err(e) => {
                shared.wire_event("journal_error", 0, &format!("open: {e}"));
                None
            }
        }
    } else {
        // Epoch 0 (or no surviving file): a fresh run truncates whatever
        // a same-id predecessor left behind.
        JournalWriter::create(&path, JOURNAL_FSYNC_BATCH).ok()
    };
    (writer, Some(path), recovered)
}

/// Spawns a fresh session with its worker pool. With a journal dir
/// configured, the session's completion book is mirrored to (and, at a
/// nonzero epoch, recovered from) `session_<id>.mlpj` in that dir.
fn spawn_session(
    service: &Arc<dyn WireService>,
    workers: usize,
    shared: &Arc<ServerShared>,
    session_id: u64,
    resume: bool,
) -> Arc<Session> {
    let (work_tx, work_rx) = mpsc::channel::<WorkItem>();
    let work_rx = Arc::new(Mutex::new(work_rx));
    let (disk, disk_path, recovered) = open_session_disk(shared, session_id, resume);
    let session = Arc::new(Session {
        book: Mutex::new(SessionBook {
            journal: recovered,
            in_progress: HashSet::new(),
            disk,
        }),
        outstanding: (Mutex::new(0usize), Condvar::new()),
        writer: Mutex::new(None),
        work_tx: Mutex::new(Some(work_tx)),
        workers: Mutex::new(Vec::with_capacity(workers)),
        events: Arc::new(RingBufferSink::new(SESSION_EVENT_CAPACITY)),
        disk_path,
    });
    let mut pool = Vec::with_capacity(workers);
    for i in 0..workers {
        let work_rx = Arc::clone(&work_rx);
        let session_t = Arc::clone(&session);
        let service = Arc::clone(service);
        let shared = Arc::clone(shared);
        let worker = std::thread::Builder::new()
            .name(format!("wire-worker-{i}"))
            .spawn(move || loop {
                let item = {
                    let rx = work_rx.lock().expect("server work queue poisoned");
                    rx.recv()
                };
                let Ok(WorkItem {
                    query,
                    trace_id,
                    enqueued_ns,
                }) = item
                else {
                    return;
                };
                let dequeued_ns = shared.now_ns();
                shared
                    .metrics
                    .observe("wire_queue_ns", dequeued_ns.saturating_sub(enqueued_ns));
                session_t.events.record(
                    enqueued_ns,
                    &TraceEvent::SpanEvent {
                        host: shared.host_label.clone(),
                        trace_id,
                        query_id: query.id,
                        phase: "queue".to_string(),
                        dur_ns: dequeued_ns.saturating_sub(enqueued_ns),
                    },
                );
                let reply = service.serve(&query);
                let served_ns = shared.now_ns();
                shared
                    .metrics
                    .observe("wire_serve_ns", served_ns.saturating_sub(dequeued_ns));
                session_t.events.record(
                    dequeued_ns,
                    &TraceEvent::SpanEvent {
                        host: shared.host_label.clone(),
                        trace_id,
                        query_id: query.id,
                        phase: "compute".to_string(),
                        dur_ns: served_ns.saturating_sub(dequeued_ns),
                    },
                );
                match reply {
                    Some(reply) => {
                        // Journal first, then send: if the connection dies
                        // between the two, the reply survives for replay.
                        // One critical section retires "in progress" and
                        // records the journal entry atomically.
                        let completion = Message::Completion {
                            query_id: query.id,
                            error: reply.error,
                            samples: reply.samples,
                        };
                        {
                            let mut book = session_t.book.lock().expect("session book poisoned");
                            book.in_progress.remove(&query.id);
                            if let Some(disk) = book.disk.as_mut() {
                                // Durable mirror first: the wire-codec
                                // bytes are the journal payload, so replay
                                // after a daemon restart parses them back
                                // with the same decoder the socket uses.
                                let _ = disk.append(&completion.to_wire());
                            }
                            let Message::Completion { error, samples, .. } = &completion else {
                                unreachable!("constructed above");
                            };
                            book.journal.insert(query.id, (*error, samples.clone()));
                        }
                        session_t.send(&completion);
                        shared.served.fetch_add(1, Ordering::SeqCst);
                        shared.metrics.incr("wire_served", 1);
                    }
                    None => {
                        // The service swallowed the query: no frame goes
                        // back, and nothing is journaled — a replay will
                        // be swallowed again, which is the point.
                        session_t
                            .book
                            .lock()
                            .expect("session book poisoned")
                            .in_progress
                            .remove(&query.id);
                        shared.wire_event("dropped_reply", query.id, "service returned nothing");
                    }
                }
                let (count, cv) = &session_t.outstanding;
                let mut n = count.lock().expect("server outstanding poisoned");
                *n = n.saturating_sub(1);
                cv.notify_all();
            });
        if let Ok(handle) = worker {
            pool.push(handle);
        }
    }
    *session.workers.lock().expect("session workers poisoned") = pool;
    session
}

/// Routes one issued query through the session's journal discipline:
/// fresh queries go to the worker pool, journaled ones are answered by
/// replay, in-progress duplicates are skipped. Returns `false` when the
/// connection must drop (the work queue is gone).
fn handle_issue(
    session: &Arc<Session>,
    shared: &Arc<ServerShared>,
    query: Query,
    trace_id: u64,
) -> bool {
    enum IssueAction {
        Fresh,
        Replay(bool, Vec<SampleCompletion>),
        Skip,
    }
    let action = {
        let mut book = session.book.lock().expect("session book poisoned");
        if let Some((error, samples)) = book.journal.get(&query.id) {
            IssueAction::Replay(*error, samples.clone())
        } else if book.in_progress.contains(&query.id) {
            IssueAction::Skip
        } else {
            book.in_progress.insert(query.id);
            IssueAction::Fresh
        }
    };
    match action {
        IssueAction::Fresh => {
            {
                let (count, _) = &session.outstanding;
                *count.lock().expect("server outstanding poisoned") += 1;
            }
            let item = WorkItem {
                query,
                trace_id,
                enqueued_ns: shared.now_ns(),
            };
            let sent = {
                let tx = session.work_tx.lock().expect("session work_tx poisoned");
                match tx.as_ref() {
                    Some(tx) => tx.send(item).is_ok(),
                    None => false,
                }
            };
            if !sent {
                let (count, cv) = &session.outstanding;
                let mut n = count.lock().expect("server outstanding poisoned");
                *n = n.saturating_sub(1);
                cv.notify_all();
                return false;
            }
        }
        IssueAction::Replay(error, samples) => {
            // Resolved in a previous epoch (or while the link
            // was down): answer from the journal, do not re-run.
            shared.wire_event("replay", query.id, "journal hit");
            shared.metrics.incr("wire_replays", 1);
            session.send(&Message::Completion {
                query_id: query.id,
                error,
                samples,
            });
        }
        IssueAction::Skip => {
            // Replayed while the original is still in a worker:
            // the worker's completion will answer both.
            shared.wire_event("dup_issue", query.id, "already in progress");
            shared.metrics.incr("wire_dup_issues", 1);
        }
    }
    true
}

/// Answers a `StatsRequest` probe connection with one `Stats` frame.
fn answer_stats(
    transport: &mut Box<dyn Transport>,
    service: &Arc<dyn WireService>,
    shared: &Arc<ServerShared>,
) {
    shared.metrics.incr("wire_stats_requests", 1);
    let (sessions, in_flight, session_outstanding) = {
        let sessions = shared.sessions.lock().expect("server sessions poisoned");
        let mut per_session: Vec<(u64, u64)> = sessions
            .iter()
            .map(|(id, s)| {
                let outstanding =
                    *s.outstanding.0.lock().expect("server outstanding poisoned") as u64;
                (*id, outstanding)
            })
            .collect();
        per_session.sort_unstable();
        let in_flight: u64 = per_session.iter().map(|(_, n)| n).sum();
        (sessions.len() as u64, in_flight, per_session)
    };
    let stats = DaemonStats {
        sut_name: service.name().to_string(),
        shard: shared.shard.clone(),
        uptime_ns: shared.now_ns(),
        served: shared.served.load(Ordering::SeqCst),
        sessions,
        in_flight,
        session_outstanding,
        snapshot: shared.metrics.snapshot(),
    };
    let _ = transport.send(
        &Message::Stats {
            json: stats.to_json_string(),
        }
        .to_wire(),
    );
}

/// Runs one connection: handshake, session attach, then the
/// issue/complete loop until the client drains or the socket dies.
fn handle_conn(
    stream: TcpStream,
    service: &Arc<dyn WireService>,
    workers: usize,
    shared: &Arc<ServerShared>,
) {
    let base: Box<dyn Transport> = Box::new(TcpTransport::new(stream));
    let mut transport = match &shared.chaos {
        Some(session) => session.wrap(base),
        None => base,
    };

    // --- handshake (or a one-shot stats probe) ---
    let hello = match transport.recv().and_then(|p| Message::from_wire(&p)) {
        Ok(Message::Hello(h)) => h,
        Ok(Message::StatsRequest) => {
            // A telemetry poll, not a run: answer and close. It never
            // touches the serving path's sessions.
            answer_stats(&mut transport, service, shared);
            return;
        }
        _ => return, // includes the shutdown poke connection
    };
    // The server speaks exactly one version; any other offer — older or
    // newer — is rejected rather than silently downgraded.
    if hello.version != PROTOCOL_VERSION {
        shared.wire_event(
            "reject",
            0,
            &format!("version mismatch: client v{}", hello.version),
        );
        let reject = Message::Reject {
            reason: format!(
                "protocol version mismatch: server v{PROTOCOL_VERSION}, client v{}",
                hello.version
            ),
        };
        let _ = transport.send(&reject.to_wire());
        return;
    }

    // --- session attach ---
    // Epoch 0 is the authoritative start of a run: any stale session with
    // the same id is retired and the service state cleared. A non-zero
    // epoch resumes the existing session (or, if the daemon restarted and
    // forgot it, starts an empty one — the replayed queries simply re-run).
    let session = if hello.epoch == 0 {
        let stale = shared
            .sessions
            .lock()
            .expect("server sessions poisoned")
            .remove(&hello.session);
        if let Some(stale) = stale {
            stale.retire();
        }
        // A fresh session is a fresh run: let stateful services clear.
        service.reset();
        let session = spawn_session(service, workers, shared, hello.session, false);
        shared
            .sessions
            .lock()
            .expect("server sessions poisoned")
            .insert(hello.session, Arc::clone(&session));
        session
    } else {
        let existing = shared
            .sessions
            .lock()
            .expect("server sessions poisoned")
            .get(&hello.session)
            .cloned();
        match existing {
            Some(session) => session,
            None => {
                // The daemon forgot this session (it restarted). With a
                // journal dir the session book is rebuilt from disk and
                // replayed queries answer without re-running; without one
                // the book starts empty and they simply re-run.
                let session = spawn_session(service, workers, shared, hello.session, true);
                shared
                    .sessions
                    .lock()
                    .expect("server sessions poisoned")
                    .insert(hello.session, Arc::clone(&session));
                session
            }
        }
    };

    let ack = Message::HelloAck {
        version: PROTOCOL_VERSION,
        sut_name: service.name().to_string(),
        max_in_flight: hello.max_in_flight,
    };
    if transport.send(&ack.to_wire()).is_err() {
        return;
    }
    // Install this connection's writer; the epoch tag keeps a dead
    // predecessor's epilogue from clearing it.
    {
        let writer = match transport.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        *session.writer.lock().expect("session writer poisoned") = Some((hello.epoch, writer));
    }
    shared.wire_event(
        "handshake",
        0,
        &format!(
            "scenario={:?} qsl_size={} window={} session={:#x} epoch={}",
            hello.scenario, hello.qsl_size, hello.max_in_flight, hello.session, hello.epoch
        ),
    );

    // --- read loop ---
    let mut clean = false;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match transport.recv().and_then(|p| Message::from_wire(&p)) {
            Ok(Message::IssueTraced { trace_id, query }) => {
                if !handle_issue(&session, shared, query, trace_id) {
                    break;
                }
            }
            // A duplicated Hello frame (chaos duplicate-send hits the
            // handshake) is harmless noise, not a protocol violation.
            Ok(Message::Hello(_)) => continue,
            Ok(Message::ClockProbe { seq, t0 }) => {
                // Stamp receive and transmit on the server's clock; the
                // client turns the four timestamps into an offset sample.
                let t1 = shared.now_ns();
                let t2 = shared.now_ns();
                session.send(&Message::ClockProbeAck { seq, t0, t1, t2 });
            }
            Ok(Message::Drain) => {
                let (count, cv) = &session.outstanding;
                let mut n = count.lock().expect("server outstanding poisoned");
                while *n > 0 && !shared.stop.load(Ordering::SeqCst) {
                    let (guard, _timeout) = cv
                        .wait_timeout(n, Duration::from_millis(100))
                        .expect("server outstanding poisoned");
                    n = guard;
                }
                drop(n);
                shared.wire_event("drain", 0, "flushed outstanding queries");
                // The session's server-side spans ship back before the
                // goodbye, so the client's detail log covers both hosts.
                // Chunked: each frame stays far below the cap.
                let records = session.events.snapshot();
                for chunk in records.chunks(EVENTS_CHUNK) {
                    let mut jsonl = String::new();
                    for record in chunk {
                        jsonl.push_str(&record.to_json_string());
                        jsonl.push('\n');
                    }
                    session.send(&Message::Events { jsonl });
                }
                session.send(&Message::Goodbye {
                    served: shared.served.load(Ordering::SeqCst),
                });
                clean = true;
                break;
            }
            Ok(Message::Goodbye { .. }) => break,
            Ok(_) => break, // protocol violation: drop the connection
            Err(_) => break,
        }
    }

    transport.shutdown();
    if clean {
        // The run drained: the session is complete, reap it — including
        // its on-disk journal, which exists only to rescue unfinished runs.
        let removed = shared
            .sessions
            .lock()
            .expect("server sessions poisoned")
            .remove(&hello.session);
        if let Some(session) = removed {
            session.retire();
            if let Some(path) = &session.disk_path {
                let _ = std::fs::remove_file(path);
            }
        }
    } else {
        // The link died dirty: the session lives on for a resume. Clear
        // the writer only if it is still ours — a successor epoch may
        // already have installed a new one.
        let mut writer = session.writer.lock().expect("session writer poisoned");
        if let Some((epoch, _)) = writer.as_ref() {
            if *epoch == hello.epoch {
                if let Some((_, transport)) = writer.take() {
                    transport.shutdown();
                }
            }
        }
    }
}
