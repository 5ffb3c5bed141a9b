//! The long-running TCP server: accept loop, per-connection handlers, and
//! the micro-batching engine loop.
//!
//! # Architecture
//!
//! Three kinds of threads cooperate around the [`AdmissionQueue`]:
//!
//! * the **accept loop** takes connections and spawns one handler each;
//! * **handlers** parse request lines, shed or enqueue [`Job`]s, and write
//!   responses at the client's pace — socket writes are the only place a
//!   slow client costs anything, so backpressure is per-connection;
//! * the **engine loop** pops jobs in micro-batches and executes each
//!   batch as one shared RouLette session (the paper's batch sharing at
//!   the serving layer), with a sweeper thread enforcing per-query
//!   deadlines through the engine's quarantine machinery.
//!
//! # Robustness
//!
//! Overload is refused at admission with a typed `overloaded` error
//! (queue depth, engine memory pressure ≥ the admissions-paused rung, or
//! drain). Deadlines evict through [`Session::quarantine`] so a late query
//! costs the shared session nothing further and its client receives
//! `deadline-exceeded` with the query attribution intact. A drain closes
//! the queue, unblocks the accept loop, lets the engine loop run the
//! backlog dry, and accounts every admitted query to a terminal outcome —
//! [`DrainReport::leaked`] is the invariant the integration tests pin at
//! zero. Wire-layer chaos (torn reads, slow clients, mid-stream
//! disconnects) is driven by the same deterministic [`FaultInjector`]
//! plans the engine's fault tests use.

use crate::admission::{AdmissionQueue, Job, JobOutcome};
use crate::metrics::ServerMetrics;
use crate::protocol::{Request, Response};
use roulette_core::sync::{self, LockRank, RwLock};
use roulette_core::{EngineConfig, Error, QueryId, QuerySet, Result};
use roulette_exec::{CompletionStatus, FaultInjector, FaultSite, RouletteEngine, Session};
use roulette_query::parse;
use roulette_storage::Catalog;
use roulette_stream::{ArrivalGen, Tick, WindowedStore, WorkloadParams};
use roulette_telemetry::{EventKind, Recorder, Telemetry};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Serving knobs. `Default` binds an ephemeral localhost port with a
/// 64-deep queue and no default deadline.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (ephemeral port).
    pub addr: String,
    /// Admission queue depth; pushes beyond it shed with `overloaded`.
    pub queue_capacity: usize,
    /// Maximum jobs coalesced into one shared session.
    pub batch_max: usize,
    /// Deadline applied to queries that do not carry their own, in
    /// milliseconds from admission. `None` means no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// Engine configuration for every batch session.
    pub engine: EngineConfig,
    /// When set, every connection starts with this wire chaos plan (as if
    /// each client had sent `CHAOS <seed>`).
    pub chaos_seed: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 64,
            batch_max: 8,
            default_deadline_ms: None,
            engine: EngineConfig::default(),
            chaos_seed: None,
        }
    }
}

/// Knobs for the STREAM demo mode ([`Server::start_stream`]): the server
/// hosts the streaming star workload instead of a static catalog, and a
/// background epoch thread keeps the hosted snapshot churning — one epoch
/// of seeded arrivals lands, the window clock advances (expiring aged
/// tuples, with `window-expiry` telemetry), and the fresh snapshot is
/// swapped in for subsequent batches. Batches are snapshot-isolated: each
/// micro-batch parses and executes against the one snapshot that was
/// current at batch start.
#[derive(Debug, Clone)]
pub struct StreamServeConfig {
    /// Seed shared with clients; both sides derive the same star schema
    /// (and the client a valid SQL pool) from it.
    pub seed: u64,
    /// Milliseconds between stream epochs (arrivals + expiry + swap).
    pub epoch_ms: u64,
    /// Window width in epochs; tuples older than this expire.
    pub window: Tick,
}

impl Default for StreamServeConfig {
    fn default() -> Self {
        StreamServeConfig { seed: 11, epoch_ms: 50, window: 8 }
    }
}

/// Terminal accounting returned by [`Server::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs admitted into the queue over the server's lifetime.
    pub admitted: u64,
    /// Jobs that received a terminal outcome (`OK` or `ERR`).
    pub terminal: u64,
    /// Admitted jobs that left a session without a terminal
    /// [`CompletionStatus`] — must be zero; anything else is a bug.
    pub leaked: u64,
    /// Queries refused with `overloaded`.
    pub shed: u64,
    /// Connections still open when the drain wait timed out.
    pub lingering_connections: u64,
}

struct Shared {
    config: ServerConfig,
    /// The hosted snapshot. Static serving never swaps it; the STREAM
    /// epoch thread replaces the `Arc` wholesale, so a batch that cloned
    /// the `Arc` at pop time keeps a consistent snapshot for its whole
    /// lifetime (parse and execution see the same catalog).
    catalog: RwLock<Arc<Catalog>>,
    addr: SocketAddr,
    queue: AdmissionQueue,
    metrics: ServerMetrics,
    telemetry: Arc<Telemetry>,
    draining: AtomicBool,
    /// Mirror of the last batch session's memory-pressure rung; at ≥ 2
    /// (admissions paused) the wire sheds before touching the queue.
    pressure: AtomicU8,
    active_connections: AtomicU64,
    admitted: AtomicU64,
    terminal: AtomicU64,
    leaked: AtomicU64,
}

/// A running server; dropping it without [`shutdown`](Server::shutdown)
/// leaves the threads serving until process exit.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<()>>,
    stream: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept and engine loops, and returns immediately.
    /// The server serves queries against `catalog` and reports into
    /// `telemetry` (engine events and server metrics share one registry).
    pub fn start(
        config: ServerConfig,
        catalog: Catalog,
        telemetry: Arc<Telemetry>,
    ) -> Result<Server> {
        Server::start_inner(config, catalog, telemetry, None)
    }

    /// Starts the server in STREAM demo mode: the hosted dataset is the
    /// streaming star workload derived from `stream.seed`, and a
    /// background epoch thread keeps it churning (arrivals, window
    /// expiry, snapshot swap) until drain. Clients with the same seed can
    /// generate SQL against the schema without any exchange — see
    /// [`crate::workload::stream_demo_sql`].
    pub fn start_stream(
        config: ServerConfig,
        stream: StreamServeConfig,
        telemetry: Arc<Telemetry>,
    ) -> Result<Server> {
        let mut gen = ArrivalGen::new(WorkloadParams::default(), stream.seed);
        let mut store = gen.store()?;
        // Pre-populate one epoch so the first batches see data.
        gen.generate(&mut store, 1)?;
        Server::start_inner(config, store.snapshot()?, telemetry, Some((stream, gen, store)))
    }

    fn start_inner(
        config: ServerConfig,
        catalog: Catalog,
        telemetry: Arc<Telemetry>,
        stream: Option<(StreamServeConfig, ArrivalGen, WindowedStore)>,
    ) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::Internal(format!("bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Internal(format!("local_addr: {e}")))?;
        let metrics = ServerMetrics::register(telemetry.registry());
        metrics.catalog_bytes.set(catalog.memory_bytes() as u64);
        let queue = AdmissionQueue::new(config.queue_capacity);
        let shared = Arc::new(Shared {
            config,
            catalog: RwLock::new(LockRank::ServerCatalog, Arc::new(catalog)),
            addr,
            queue,
            metrics,
            telemetry,
            draining: AtomicBool::new(false),
            pressure: AtomicU8::new(0),
            active_connections: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            terminal: AtomicU64::new(0),
            leaked: AtomicU64::new(0),
        });
        let engine = {
            let s = Arc::clone(&shared);
            thread::Builder::new()
                .name("roulette-engine".into())
                .spawn(move || engine_loop(&s))
                .map_err(|e| Error::Internal(format!("spawn engine loop: {e}")))?
        };
        let accept = {
            let s = Arc::clone(&shared);
            thread::Builder::new()
                .name("roulette-accept".into())
                .spawn(move || accept_loop(&s, listener))
                .map_err(|e| Error::Internal(format!("spawn accept loop: {e}")))?
        };
        let stream = match stream {
            Some((scfg, gen, store)) => {
                let s = Arc::clone(&shared);
                Some(
                    thread::Builder::new()
                        .name("roulette-stream".into())
                        .spawn(move || stream_loop(&s, scfg, gen, store))
                        .map_err(|e| Error::Internal(format!("spawn stream loop: {e}")))?,
                )
            }
            None => None,
        };
        Ok(Server { shared, accept: Some(accept), engine: Some(engine), stream })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The telemetry sink the server reports into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// The server's metric handles (for tests and smoke checks).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Whether a drain has begun (via [`shutdown`](Server::shutdown) or a
    /// client's `DRAIN` request).
    pub fn is_draining(&self) -> bool {
        // ordering: Acquire pairs with `begin_drain`'s AcqRel swap.
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Gracefully drains and stops the server: closes admissions, lets the
    /// engine loop run the backlog to terminal outcomes, joins the accept
    /// and engine threads, and waits (bounded) for handlers to finish
    /// writing. Returns the terminal accounting.
    pub fn shutdown(mut self) -> DrainReport {
        sync::assert_no_locks_held();
        begin_drain(&self.shared);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
        if let Some(h) = self.stream.take() {
            let _ = h.join();
        }
        let wait_until = Instant::now() + Duration::from_secs(10);
        // ordering: Acquire pairs with the handler's AcqRel fetch_sub so a
        // zero count proves every handler finished writing its response.
        while self.shared.active_connections.load(Ordering::Acquire) > 0
            && Instant::now() < wait_until
        {
            thread::sleep(Duration::from_millis(2));
        }
        // ordering: Acquire — same pairing as the wait loop above.
        let lingering = self.shared.active_connections.load(Ordering::Acquire);
        self.shared.metrics.active_connections.set(lingering);
        DrainReport {
            // ordering: Acquire pairs with the AcqRel counter updates in
            // admission and the engine loop; both threads were joined above,
            // so these reads see the final drain accounting.
            admitted: self.shared.admitted.load(Ordering::Acquire),
            terminal: self.shared.terminal.load(Ordering::Acquire),
            leaked: self.shared.leaked.load(Ordering::Acquire), // ordering: as above.
            shed: self.shared.metrics.shed.total(),
            lingering_connections: lingering,
        }
    }
}

impl Shared {
    /// Clones the current hosted snapshot. Batches call this once at pop
    /// time so parse and execution share one consistent catalog even
    /// while the stream thread swaps in newer snapshots.
    fn snapshot_catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog.read())
    }
}

/// The STREAM epoch thread: every `epoch_ms`, one epoch of seeded
/// arrivals lands, the window clock advances (expiry events +
/// `roulette_window_expired_tuples_total`), and the fresh snapshot
/// replaces the hosted catalog. Exits at drain.
fn stream_loop(
    shared: &Shared,
    scfg: StreamServeConfig,
    mut gen: ArrivalGen,
    mut store: WindowedStore,
) {
    // Epoch 1 was pre-populated before the server started.
    let mut now: Tick = 1;
    loop {
        sync::assert_no_locks_held();
        thread::sleep(Duration::from_millis(scfg.epoch_ms.max(1)));
        // ordering: Acquire pairs with `begin_drain`'s AcqRel swap.
        if shared.draining.load(Ordering::Acquire) {
            return;
        }
        now += 1;
        if gen.generate(&mut store, now).is_err() {
            return;
        }
        for (relation, expired) in store.advance(now, scfg.window.max(1)) {
            shared
                .telemetry
                .record_event(now, EventKind::WindowExpiry { relation, expired });
        }
        match store.snapshot() {
            Ok(c) => {
                shared.metrics.catalog_bytes.set(c.memory_bytes() as u64);
                *shared.catalog.write() = Arc::new(c);
            }
            Err(_) => return,
        }
    }
}

fn begin_drain(shared: &Shared) {
    // ordering: AcqRel — the winner of the swap owns the one-shot drain
    // side effects; Acquire loads of `draining` see them after the flag.
    if shared.draining.swap(true, Ordering::AcqRel) {
        return;
    }
    shared.metrics.draining.set(1);
    shared.queue.close();
    // Unblock the accept loop with a throwaway connection; it checks the
    // drain flag after every accept.
    sync::assert_no_locks_held();
    let _ = TcpStream::connect(shared.addr);
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    loop {
        sync::assert_no_locks_held();
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                // ordering: Acquire pairs with `begin_drain`'s AcqRel swap.
                if shared.draining.load(Ordering::Acquire) {
                    // Refuse with a typed terminal instead of a bare RST so
                    // a client racing the drain still reads `overloaded`.
                    let _ = write_line(
                        &mut stream,
                        &Response::Err(Error::Overloaded("draining".into())),
                    );
                    shared.metrics.shed.inc();
                    return;
                }
                let s = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("roulette-conn".into())
                    .spawn(move || handle_connection(&s, stream));
                if spawned.is_err() {
                    // Thread exhaustion: refuse this client, keep serving.
                    continue;
                }
            }
            Err(e) => {
                // ordering: Acquire pairs with `begin_drain`'s AcqRel swap.
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                if e.kind() == ErrorKind::Interrupted {
                    continue;
                }
                // Transient accept errors (EMFILE, aborted handshake):
                // back off briefly instead of spinning.
                thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    shared.metrics.connections.inc();
    // ordering: AcqRel on both counter edges pairs with shutdown's Acquire
    // wait loop — count 0 proves the handler's writes are visible.
    let active = shared.active_connections.fetch_add(1, Ordering::AcqRel) + 1;
    shared.metrics.active_connections.set(active);
    let _ = serve_connection(shared, stream);
    // ordering: AcqRel — the Release edge publishes this handler's writes
    // to shutdown's Acquire wait loop.
    let active = shared.active_connections.fetch_sub(1, Ordering::AcqRel).saturating_sub(1);
    shared.metrics.active_connections.set(active);
}

fn write_line(w: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    sync::assert_no_locks_held();
    let mut s = resp.encode();
    s.push('\n');
    w.write_all(s.as_bytes())
}

/// Fires `site` against the connection's chaos plan, if armed.
fn chaos_fires(
    shared: &Shared,
    chaos: &Option<FaultInjector>,
    site: FaultSite,
    wire_qs: &QuerySet,
) -> bool {
    match chaos {
        Some(inj) if inj.check(site, wire_qs).is_some() => {
            shared.metrics.wire_faults.inc();
            true
        }
        _ => false,
    }
}

fn serve_connection(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
    // The read timeout doubles as the drain poll interval: an idle
    // connection notices a drain within ~50 ms instead of pinning the
    // server open forever.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut chaos: Option<FaultInjector> =
        shared.config.chaos_seed.map(FaultInjector::seeded_wire);
    // Wire faults target the connection, not a specific query slot.
    let wire_qs = QuerySet::full(1);
    let mut line = String::new();
    loop {
        sync::assert_no_locks_held();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // `read_line` may have buffered a partial line; keep it and
                // retry so a slow writer is not misread as a torn request.
                // ordering: Acquire pairs with `begin_drain`'s AcqRel swap.
                if shared.draining.load(Ordering::Acquire) && line.is_empty() {
                    return Ok(());
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        if chaos_fires(shared, &chaos, FaultSite::WireTornRead, &wire_qs) {
            // Torn read: the request line arrives cut in half. The parser
            // must answer with a typed error, never hang or panic.
            let mut keep = line.len() / 2;
            while keep > 0 && !line.is_char_boundary(keep) {
                keep -= 1;
            }
            line.truncate(keep);
        }
        let req = Request::parse(&line);
        line.clear();
        let keep_alive = match req {
            Err(e) => {
                shared.metrics.protocol_errors.inc();
                write_line(&mut writer, &Response::Err(e))?;
                true
            }
            Ok(Request::Ping) => {
                write_line(&mut writer, &Response::Pong)?;
                true
            }
            Ok(Request::Faults) => {
                let names =
                    FaultSite::ALL.iter().map(|s| s.name().to_string()).collect();
                write_line(&mut writer, &Response::Sites(names))?;
                true
            }
            Ok(Request::Chaos { seed }) => {
                chaos = Some(FaultInjector::seeded_wire(seed));
                write_line(&mut writer, &Response::Ok { rows: 0, checksum: seed })?;
                true
            }
            Ok(Request::Drain) => {
                begin_drain(shared);
                write_line(&mut writer, &Response::Ok { rows: 0, checksum: 0 })?;
                true
            }
            Ok(Request::Query { sql, want_rows, deadline_ms }) => {
                serve_query(shared, &mut writer, &chaos, &wire_qs, sql, want_rows, deadline_ms)?
            }
        };
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Runs one `QUERY` request end to end; returns `false` when an injected
/// disconnect dropped the connection mid-stream.
fn serve_query(
    shared: &Shared,
    writer: &mut TcpStream,
    chaos: &Option<FaultInjector>,
    wire_qs: &QuerySet,
    sql: String,
    want_rows: bool,
    deadline_ms: Option<u64>,
) -> std::io::Result<bool> {
    let started = Instant::now();
    // Admission control: shed before any work is queued.
    // ordering: Acquire on `draining` pairs with `begin_drain`'s AcqRel
    // swap; Acquire on `pressure` pairs with the engine loop's Release
    // store so the shed decision sees the batch that raised the level.
    let shed_reason = if shared.draining.load(Ordering::Acquire) {
        Some("server is draining; no new admissions".to_string())
    } else if shared.pressure.load(Ordering::Acquire) >= 2 { // ordering: as above.
        Some("engine memory pressure; admissions paused".to_string())
    } else {
        None
    };
    if let Some(reason) = shed_reason {
        shared.metrics.shed.inc();
        write_line(writer, &Response::Err(Error::Overloaded(reason)))?;
        return Ok(true);
    }
    let (tx, rx) = sync_channel(1);
    let job = Job { sql, want_rows, deadline_ms, enqueued_at: started, reply: tx };
    let depth = match shared.queue.push(job) {
        Ok(depth) => depth,
        Err(e) => {
            shared.metrics.shed.inc();
            write_line(writer, &Response::Err(e))?;
            return Ok(true);
        }
    };
    // ordering: AcqRel drain-accounting counter; shutdown reads it with
    // Acquire after joining the threads that update it.
    shared.admitted.fetch_add(1, Ordering::AcqRel);
    shared.metrics.admitted.inc();
    shared.metrics.queue_depth.set(depth as u64);
    // Exactly one terminal outcome arrives per admitted job; the engine
    // loop cannot exit before delivering it (drain pops the full backlog).
    sync::assert_no_locks_held();
    let outcome = match rx.recv() {
        Ok(o) => o,
        Err(_) => JobOutcome::Failed(Error::Internal(
            "engine loop dropped the job without an outcome".into(),
        )),
    };
    let keep_alive = match outcome {
        JobOutcome::Done { rows, checksum, collected } => {
            if chaos_fires(shared, chaos, FaultSite::WireSlowClient, wire_qs) {
                // Slow client: stall before streaming so the engine side
                // demonstrably keeps running (results are already
                // materialized; only this connection pays).
                sync::assert_no_locks_held();
                thread::sleep(Duration::from_millis(30));
            }
            let mut disconnected = false;
            for row in &collected {
                if chaos_fires(shared, chaos, FaultSite::WireDisconnect, wire_qs) {
                    disconnected = true;
                    break;
                }
                write_line(writer, &Response::Row(row.clone()))?;
                shared.metrics.rows_streamed.inc();
            }
            if !disconnected
                && chaos_fires(shared, chaos, FaultSite::WireDisconnect, wire_qs)
            {
                disconnected = true;
            }
            if !disconnected {
                write_line(writer, &Response::Ok { rows, checksum })?;
            }
            !disconnected
        }
        JobOutcome::Failed(e) => {
            write_line(writer, &Response::Err(e))?;
            true
        }
    };
    let lat = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.latency_us.record(lat);
    Ok(keep_alive)
}

fn engine_loop(shared: &Shared) {
    loop {
        let Some(jobs) = shared.queue.pop_batch(shared.config.batch_max) else {
            break;
        };
        shared.metrics.queue_depth.set(shared.queue.depth() as u64);
        process_batch(shared, jobs);
    }
    shared.metrics.queue_depth.set(0);
}

fn process_batch(shared: &Shared, jobs: Vec<Job>) {
    let catalog = shared.snapshot_catalog();
    let mut engine = RouletteEngine::new(&catalog, shared.config.engine.clone());
    engine.set_recorder(shared.telemetry.clone());
    let mut session = engine.session(jobs.len());
    let collecting =
        jobs.iter().any(|j| j.want_rows) && session.collect_rows().is_ok();
    let mut admitted: Vec<Admitted> = Vec::new();
    for job in jobs {
        match parse(&catalog, &job.sql).and_then(|q| session.admit(q)) {
            Ok(qid) => {
                let budget_ms = job.deadline_ms.or(shared.config.default_deadline_ms);
                let deadline =
                    budget_ms.map(|ms| job.enqueued_at + Duration::from_millis(ms));
                admitted.push(Admitted { qid, job, deadline, budget_ms });
            }
            Err(e) => {
                shared.metrics.failed.inc();
                // ordering: AcqRel drain-accounting counter; see DrainReport.
                shared.terminal.fetch_add(1, Ordering::AcqRel);
                let _ = job.reply.send(JobOutcome::Failed(e));
            }
        }
    }
    if admitted.is_empty() {
        return;
    }
    session.close();
    run_with_deadlines(&session, &admitted);
    // ordering: Release pairs with admission's Acquire load so shedding
    // observes the pressure level the finished batch produced.
    shared.pressure.store(session.stats().memory_pressure, Ordering::Release);
    for a in admitted {
        let outcome = match session.terminal_status(a.qid) {
            Some(CompletionStatus::Complete) => {
                let res = session.result(a.qid);
                let collected = if a.job.want_rows && collecting {
                    session.take_collected(a.qid)
                } else {
                    Vec::new()
                };
                shared.metrics.completed.inc();
                JobOutcome::Done { rows: res.rows, checksum: res.checksum, collected }
            }
            Some(CompletionStatus::Quarantined) => {
                let err = session.query_error(a.qid).unwrap_or_else(|| {
                    Error::Internal("quarantined without an attributed error".into())
                });
                if matches!(err, Error::DeadlineExceeded { .. }) {
                    shared.metrics.deadline_exceeded.inc();
                }
                shared.metrics.failed.inc();
                JobOutcome::Failed(err)
            }
            None => {
                // ordering: AcqRel drain-accounting counter; see DrainReport.
                shared.leaked.fetch_add(1, Ordering::AcqRel);
                shared.metrics.failed.inc();
                JobOutcome::Failed(Error::Internal(
                    "query left the session without a terminal status".into(),
                ))
            }
        };
        // ordering: AcqRel drain-accounting counter; see DrainReport.
        shared.terminal.fetch_add(1, Ordering::AcqRel);
        let _ = a.job.reply.send(outcome);
    }
    shared.metrics.batches.inc();
}

/// One query admitted into a batch session, with its deadline bookkeeping.
struct Admitted {
    qid: QueryId,
    job: Job,
    deadline: Option<Instant>,
    budget_ms: Option<u64>,
}

/// Runs the session's workers with a sweeper thread enforcing per-query
/// deadlines through the engine's (idempotent, thread-safe) quarantine.
fn run_with_deadlines(session: &Session<'_>, admitted: &[Admitted]) {
    if !admitted.iter().any(|a| a.deadline.is_some()) {
        session.run_workers();
        return;
    }
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        let sweeper = scope.spawn(|| {
            // ordering: Acquire pairs with the Release store after
            // `run_workers` returns; the sweeper exits having seen every
            // terminal status the workers published.
            while !stop.load(Ordering::Acquire) {
                let now = Instant::now();
                for a in admitted {
                    let Some(dl) = a.deadline else { continue };
                    if now >= dl && session.terminal_status(a.qid).is_none() {
                        let ms = a.budget_ms.unwrap_or_default();
                        session.quarantine(
                            a.qid,
                            Error::DeadlineExceeded {
                                query: a.qid,
                                message: format!("budget of {ms} ms exceeded"),
                            },
                        );
                    }
                }
                sync::assert_no_locks_held();
                thread::park_timeout(Duration::from_millis(1));
            }
        });
        session.run_workers();
        // ordering: Release pairs with the sweeper's Acquire poll.
        stop.store(true, Ordering::Release);
        sweeper.thread().unpark();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{demo_dataset, demo_sql};
    use std::io::BufRead;

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let writer = TcpStream::connect(addr).unwrap();
            let reader = BufReader::new(writer.try_clone().unwrap());
            Client { reader, writer }
        }

        fn send(&mut self, req: &Request) {
            let mut s = req.encode();
            s.push('\n');
            self.writer.write_all(s.as_bytes()).unwrap();
        }

        fn recv(&mut self) -> Response {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            Response::parse(&line).unwrap()
        }

        /// Reads ROW lines until the terminal OK/ERR, returning both.
        fn recv_result(&mut self) -> (Vec<Vec<i64>>, Response) {
            let mut rows = Vec::new();
            loop {
                match self.recv() {
                    Response::Row(r) => rows.push(r),
                    terminal => return (rows, terminal),
                }
            }
        }
    }

    fn start_demo(config: ServerConfig) -> Server {
        let ds = demo_dataset(11);
        Server::start(config, ds.catalog, Telemetry::with_defaults()).unwrap()
    }

    /// The `roulette_server_catalog_bytes` gauge.
    fn catalog_bytes(server: &Server) -> u64 {
        server.telemetry().registry().gauge("roulette_server_catalog_bytes", "").get()
    }

    #[test]
    fn ping_faults_and_unknown_verbs() {
        let server = start_demo(ServerConfig::default());
        assert_eq!(catalog_bytes(&server), demo_dataset(11).catalog.memory_bytes() as u64);
        let mut c = Client::connect(server.local_addr());
        c.send(&Request::Ping);
        assert_eq!(c.recv(), Response::Pong);
        c.send(&Request::Faults);
        match c.recv() {
            Response::Sites(names) => {
                assert_eq!(names.len(), FaultSite::ALL.len());
                assert!(names.iter().any(|n| n == "wire-torn-read"));
            }
            other => panic!("expected SITES, got {other:?}"),
        }
        c.writer.write_all(b"BOGUS\n").unwrap();
        match c.recv() {
            Response::Err(Error::ProtocolViolation(_)) => {}
            other => panic!("expected protocol violation, got {other:?}"),
        }
        let report = server.shutdown();
        assert_eq!(report.leaked, 0);
        assert_eq!(report.admitted, 0);
    }

    #[test]
    fn queries_execute_and_match_direct_execution() {
        let server = start_demo(ServerConfig::default());
        let pool = demo_sql(11, 4).unwrap();
        let mut c = Client::connect(server.local_addr());
        let mut wire_results = Vec::new();
        for sql in &pool {
            c.send(&Request::Query { sql: sql.clone(), want_rows: false, deadline_ms: None });
            match c.recv_result() {
                (rows, Response::Ok { rows: n, checksum }) => {
                    assert!(rows.is_empty(), "did not ask for rows");
                    wire_results.push((n, checksum));
                }
                (_, other) => panic!("query failed: {other:?}"),
            }
        }
        // The same queries, executed directly, agree (history independence
        // means batching at the server cannot change per-query results).
        let ds = demo_dataset(11);
        let engine = RouletteEngine::new(&ds.catalog, EngineConfig::default());
        for (sql, (n, sum)) in pool.iter().zip(&wire_results) {
            let q = parse(&ds.catalog, sql).unwrap();
            let out = engine.execute_batch(std::slice::from_ref(&q)).unwrap();
            assert_eq!((out.per_query[0].rows, out.per_query[0].checksum), (*n, *sum), "{sql}");
        }
        let report = server.shutdown();
        assert_eq!(report.leaked, 0);
        assert_eq!(report.admitted, report.terminal);
    }

    #[test]
    fn rows_stream_before_terminal_ok() {
        let server = start_demo(ServerConfig::default());
        let pool = demo_sql(11, 2).unwrap();
        // Pool index 1 projects the hub's sel column.
        let sql = pool.get(1).unwrap().clone();
        let mut c = Client::connect(server.local_addr());
        c.send(&Request::Query { sql, want_rows: true, deadline_ms: None });
        let (rows, terminal) = c.recv_result();
        match terminal {
            Response::Ok { rows: n, .. } => {
                assert_eq!(rows.len() as u64, n, "every row streamed");
                assert!(n > 0, "projection query returns rows");
            }
            other => panic!("expected OK, got {other:?}"),
        }
        assert_eq!(server.shutdown().leaked, 0);
    }

    #[test]
    fn parse_errors_are_typed_not_fatal() {
        let server = start_demo(ServerConfig::default());
        let mut c = Client::connect(server.local_addr());
        c.send(&Request::Query {
            sql: "SELECT count(*) FROM no_such_relation".into(),
            want_rows: false,
            deadline_ms: None,
        });
        match c.recv() {
            Response::Err(e) => assert!(
                !matches!(e, Error::ProtocolViolation(_)),
                "parse/schema error expected, got {e}"
            ),
            other => panic!("expected ERR, got {other:?}"),
        }
        // The connection survives.
        c.send(&Request::Ping);
        assert_eq!(c.recv(), Response::Pong);
        let report = server.shutdown();
        assert_eq!(report.leaked, 0);
        assert_eq!(report.admitted, report.terminal);
    }

    #[test]
    fn drain_request_sheds_followups_with_overloaded() {
        let server = start_demo(ServerConfig::default());
        let mut c = Client::connect(server.local_addr());
        c.send(&Request::Drain);
        assert_eq!(c.recv(), Response::Ok { rows: 0, checksum: 0 });
        assert!(server.is_draining());
        c.send(&Request::Query {
            sql: "SELECT count(*) FROM store_sales".into(),
            want_rows: false,
            deadline_ms: None,
        });
        match c.recv() {
            Response::Err(Error::Overloaded(m)) => assert!(m.contains("drain"), "{m}"),
            other => panic!("expected overloaded, got {other:?}"),
        }
        let report = server.shutdown();
        assert_eq!(report.leaked, 0);
        assert!(report.shed >= 1);
    }

    #[test]
    fn chaos_connection_resolves_to_typed_errors_and_zero_leaks() {
        // Chaos plans are per-connection and deterministic; every wire
        // fault degrades to a typed error or a clean disconnect, and the
        // engine still drives every admitted query to a terminal status.
        let server = start_demo(ServerConfig::default());
        let pool = demo_sql(11, 6).unwrap();
        for seed in 0..4u64 {
            let mut c = Client::connect(server.local_addr());
            c.send(&Request::Chaos { seed });
            assert_eq!(c.recv(), Response::Ok { rows: 0, checksum: seed });
            for sql in &pool {
                c.send(&Request::Query {
                    sql: sql.clone(),
                    want_rows: true,
                    deadline_ms: None,
                });
                // A torn read may mangle the request (typed ERR), a
                // disconnect may drop the connection (read returns 0 /
                // error); both are acceptable terminal behaviours.
                let mut line = String::new();
                let healthy = loop {
                    line.clear();
                    match c.reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break false,
                        Ok(_) => match Response::parse(&line) {
                            Ok(Response::Row(_)) => continue,
                            Ok(_) => break true,
                            Err(_) => break false,
                        },
                    }
                };
                if !healthy {
                    break; // reconnect for the next seed
                }
            }
        }
        let report = server.shutdown();
        assert_eq!(report.leaked, 0, "{report:?}");
        assert_eq!(report.admitted, report.terminal, "{report:?}");
    }

    #[test]
    fn stream_mode_serves_churning_snapshots_without_leaks() {
        let stream = StreamServeConfig { seed: 11, epoch_ms: 5, window: 3 };
        let server = Server::start_stream(
            ServerConfig::default(),
            stream,
            Telemetry::with_defaults(),
        )
        .unwrap();
        let pool = crate::workload::stream_demo_sql(11, 6).unwrap();
        let mut c = Client::connect(server.local_addr());
        // Drive queries across many epoch swaps; the pool must stay valid
        // against every snapshot and every query must terminate cleanly.
        let deadline = Instant::now() + Duration::from_millis(300);
        let mut ok = 0u64;
        while Instant::now() < deadline {
            for sql in &pool {
                c.send(&Request::Query {
                    sql: sql.clone(),
                    want_rows: false,
                    deadline_ms: None,
                });
                match c.recv_result() {
                    (_, Response::Ok { .. }) => ok += 1,
                    (_, other) => panic!("stream query failed: {other:?}"),
                }
            }
        }
        assert!(ok >= pool.len() as u64, "at least one full pass served");
        // The epoch thread expired tuples out of the window while serving.
        let expired = server
            .telemetry()
            .registry()
            .counter("roulette_window_expired_tuples_total", "")
            .total();
        assert!(expired > 0, "window expiry ran during the serve");
        // Each swap re-sets the gauge to the new snapshot's footprint.
        assert!(catalog_bytes(&server) > 0);
        let report = server.shutdown();
        assert_eq!(report.leaked, 0, "{report:?}");
        assert_eq!(report.admitted, report.terminal, "{report:?}");
    }

    #[test]
    fn deadline_exceeded_is_a_distinct_wire_error() {
        // A 200k-row hub makes per-query work comfortably exceed a 1 ms
        // budget, so the sweeper must evict.
        use roulette_storage::datagen::chains::{generate, ChainsParams};
        let params = ChainsParams { chains: 2, relations: 5, domain: 64, hub_rows: 200_000 };
        let ds = generate(params, 5);
        let sql = {
            let qs = roulette_query::generator::chains_queries(&ds, 1, 5).unwrap();
            crate::protocol::Request::Query {
                sql: roulette_query::to_sql(&ds.catalog, qs.first().unwrap()),
                want_rows: false,
                deadline_ms: Some(1),
            }
        };
        let server =
            Server::start(ServerConfig::default(), ds.catalog, Telemetry::with_defaults())
                .unwrap();
        let mut c = Client::connect(server.local_addr());
        c.send(&sql);
        match c.recv() {
            Response::Err(Error::DeadlineExceeded { query, message }) => {
                assert_eq!(query, QueryId(0));
                assert!(message.contains("1 ms"), "{message}");
            }
            other => panic!("expected deadline-exceeded, got {other:?}"),
        }
        assert_eq!(server.metrics().deadline_exceeded.total(), 1);
        // The telemetry ring carries the dedicated event.
        let events = server.telemetry().events().snapshot();
        assert!(
            events.iter().any(|e| e.kind.name() == "deadline-exceeded"),
            "{events:?}"
        );
        let report = server.shutdown();
        assert_eq!(report.leaked, 0);
        assert_eq!(report.admitted, report.terminal);
    }
}
