//! Interleaving stress: workers sharing one ingestion cursor (one vector
//! per episode; the names date from a work-stealing scheduler) racing
//! quarantine, eviction, and drain. Four workers run through seeded
//! adversarial interleavings (admission_race.rs style — per-thread
//! xorshift* jitter so a failure reproduces from its seed) while
//! quarantines, memory-pressure evictions, and a server drain land between
//! hand-outs. The contracts under test:
//!
//! * every admitted query reaches **exactly one** terminal outcome
//!   (`Complete` or `Quarantined` with an attributed error) — a handed-out
//!   vector must neither lose its episode nor run it twice, and a
//!   quarantine that unschedules a scan mid-run must not strand it;
//! * a wire `DRAIN` over a multi-worker engine accounts every admitted
//!   query (`leaked == 0`, `admitted == terminal`).

use roulette::core::{EngineConfig, Error, QueryId};
use roulette::exec::{CompletionStatus, RouletteEngine};
use roulette::query::SpjQuery;
use roulette::storage::{Catalog, RelationBuilder};
use roulette_server::protocol::{Request, Response};
use roulette_server::{demo_dataset, demo_sql, Server, ServerConfig};
use roulette_telemetry::Telemetry;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Tiny deterministic PRNG (xorshift*), one per thread, so the jitter
/// schedule is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e3779b97f4a7c15).max(1))
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545f4914f6cdd1d)
    }

    fn jitter(&mut self, max_us: u64) -> Duration {
        Duration::from_micros(self.next() % max_us.max(1))
    }
}

/// fact(fk, v) ⋈ dim(pk, w) with enough fact rows that 4 workers chew
/// through many episode vectors, so the races land between hand-outs.
fn catalog(rows: usize) -> Catalog {
    let mut c = Catalog::new();
    let fk: Vec<i64> = (0..rows as i64).map(|i| i % 40).collect();
    let v: Vec<i64> = (0..rows as i64).collect();
    let mut f = RelationBuilder::new("fact");
    f.int64("fk", fk);
    f.int64("v", v);
    c.add(f.build()).unwrap();
    let mut d = RelationBuilder::new("dim");
    d.int64("pk", (0..32).collect());
    d.int64("w", (100..132).collect());
    c.add(d.build()).unwrap();
    c
}

fn workload(c: &Catalog, n: usize) -> Vec<SpjQuery> {
    (0..n)
        .map(|i| {
            SpjQuery::builder(c)
                .relation("fact")
                .relation("dim")
                .join(("fact", "fk"), ("dim", "pk"))
                .range("fact", "v", i as i64, 4096 + i as i64)
                .project("fact", "v")
                .build()
                .unwrap()
        })
        .collect()
}

/// Runs a 4-worker session while racing threads quarantine random
/// queries mid-flight; a tight memory budget additionally fires the
/// engine's own eviction ladder. Afterwards every query must hold exactly
/// one coherent terminal outcome.
fn steal_race(seed: u64, budget: Option<usize>) {
    const QUERIES: usize = 10;
    const SABOTEURS: usize = 3;
    let c = catalog(4096);
    let mut cfg = EngineConfig::default()
        .with_vector_size(16)
        .unwrap()
        .with_workers(4)
        .unwrap()
        .with_seed(seed);
    if let Some(b) = budget {
        cfg = cfg.with_memory_budget(b).unwrap();
    }
    let engine = RouletteEngine::new(&c, cfg);
    let mut session = engine.session(QUERIES);
    session.collect_rows().unwrap();
    for q in workload(&c, QUERIES) {
        session.admit(q).unwrap();
    }
    let session = &session;
    std::thread::scope(|scope| {
        // Saboteurs fire external quarantines between hand-outs, episodes
        // and completions, at seeded instants.
        for s in 0..SABOTEURS {
            scope.spawn(move || {
                let mut rng = Rng::new(seed.wrapping_add(s as u64));
                std::thread::sleep(rng.jitter(800));
                let victim = QueryId((rng.next() % QUERIES as u64) as u32);
                session.quarantine(
                    victim,
                    Error::QueryFault {
                        query: victim,
                        message: format!("saboteur {s} strikes"),
                    },
                );
            });
        }
        session.run_workers();
    });
    // Exactly one terminal outcome per admitted query: a status exists, is
    // terminal, and quarantined queries carry an attributed error while
    // complete ones carry none and a coherent collected row count.
    for i in 0..QUERIES {
        let q = QueryId(i as u32);
        let status = session
            .terminal_status(q)
            .unwrap_or_else(|| panic!("seed {seed}: query {i} has no terminal outcome"));
        let result = session.result(q);
        assert_eq!(result.status, status, "seed {seed}: query {i} status incoherent");
        match status {
            CompletionStatus::Complete => {
                assert!(
                    session.query_error(q).is_none(),
                    "seed {seed}: complete query {i} holds an error"
                );
                let rows = session.take_collected(q);
                assert_eq!(
                    rows.len(),
                    result.rows as usize,
                    "seed {seed}: query {i} collected row count diverges from result"
                );
            }
            CompletionStatus::Quarantined => {
                assert!(
                    session.query_error(q).is_some(),
                    "seed {seed}: quarantined query {i} lost its error attribution"
                );
            }
        }
    }
}

#[test]
fn stealing_races_quarantine_across_seeds() {
    for seed in [3, 911, 40961] {
        steal_race(seed, None);
    }
}

#[test]
fn stealing_races_memory_pressure_eviction() {
    // A budget small enough that the governor's final rung must evict,
    // concurrently with four workers and external quarantines.
    for seed in [17, 6151] {
        steal_race(seed, Some(96 * 1024));
    }
}

/// Runs one query and reads to the terminal line.
fn run_query(addr: std::net::SocketAddr, sql: &str) -> bool {
    let Ok(stream) = TcpStream::connect(addr) else {
        return false;
    };
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let req = Request::Query { sql: sql.to_string(), want_rows: false, deadline_ms: None };
    if writer.write_all(format!("{}\n", req.encode()).as_bytes()).is_err() {
        return false;
    }
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return false,
            Ok(_) => {}
        }
        match Response::parse(&line).expect("parse response") {
            Response::Row(_) => {}
            Response::Ok { .. } => return true,
            Response::Err(_) => return false,
            other => panic!("unexpected mid-query response {other:?}"),
        }
    }
}

#[test]
fn drain_over_sharded_stealing_engine_leaks_nothing() {
    // The admission_race drain contract, re-run over a 4-worker engine: a
    // wire DRAIN racing a jittered client fleet must account every
    // admitted query.
    let seed = 67u64;
    let pool = demo_sql(11, 12).expect("demo workload");
    let ds = demo_dataset(11);
    let config = ServerConfig {
        batch_max: 4,
        engine: EngineConfig::default().with_workers(4).expect("workers"),
        ..ServerConfig::default()
    };
    let server =
        Server::start(config, ds.catalog, Telemetry::with_defaults()).expect("start server");
    let addr = server.local_addr();
    const CLIENTS: usize = 12;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let sql = pool[i % pool.len()].clone();
                scope.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_add(i as u64));
                    std::thread::sleep(rng.jitter(1_500));
                    run_query(addr, &sql)
                })
            })
            .collect();
        let drainer = scope.spawn(move || {
            let mut rng = Rng::new(seed ^ 0xd5a1);
            std::thread::sleep(rng.jitter(1_000));
            let stream = TcpStream::connect(addr).expect("connect for drain");
            stream.set_read_timeout(Some(Duration::from_secs(30))).expect("set timeout");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            writer.write_all(b"DRAIN\n").expect("send drain");
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
        });
        drainer.join().expect("drainer");
        for h in handles {
            h.join().expect("client");
        }
    });
    let report = server.shutdown();
    assert_eq!(report.leaked, 0, "drain leaked queries: {report:?}");
    assert_eq!(
        report.admitted, report.terminal,
        "admitted queries without terminal outcomes: {report:?}"
    );
}
