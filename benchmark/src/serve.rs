//! `serve-open`: client-seen latency through TCP → `roulette-server` →
//! `Session`, under an open loop at a fixed rate. Arrival `i` is due at
//! `start + i / rate` whatever the server does; latency runs from the due
//! time, so a stall is billed to every request it delays, and the
//! generator's own lateness is reported beside it.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{
    engine_config, mix, put_exec_layers, put_trace_summary, traced_session, Args, ExecTotals,
    Report, Res, SessionRun, QUERY_SEED, SERVE_CONNECTIONS, SERVE_RATE_PER_S, SERVE_SF,
    SERVE_SQL_POOL, SERVE_WARMUP_PER_CONN, SETUPS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roulette_exec::RouletteEngine;
use roulette_loadgen::Client;
use roulette_query::generator::{tpcds_pool, SensitivityParams};
use roulette_query::{parse, to_sql};
use roulette_server::{Request, Response, Server, ServerConfig};
use roulette_storage::datagen::tpcds;
use roulette_storage::Catalog;
use roulette_telemetry::Telemetry;
use std::time::{Duration, Instant};

pub fn server_config(seed: u64) -> ServerConfig {
    let engine = engine_config(seed).expect("WORKERS is a valid worker count");
    ServerConfig {
        engine,
        ..ServerConfig::default()
    }
}

/// When arrival `i` of an open loop at `rate_per_s` is due, from its start.
pub fn due_offset(i: u64, rate_per_s: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_per_s)
}

/// The arrivals connection `conn` of `conns` sends: every `conns`-th one, so
/// the schedule is fixed before the run and no connection waits for another.
pub fn arrivals_of(conn: usize, conns: usize, total: u64) -> impl Iterator<Item = u64> {
    (conn as u64..total).step_by(conns)
}

struct Running {
    server: Server,
    clients: Vec<Client>,
    datagen_s: f64,
}

fn start(seed: u64, sqls: &[String]) -> Res<Running> {
    let t0 = Instant::now();
    let catalog = tpcds::generate(SERVE_SF, mix(seed, 1)).catalog;
    let datagen_s = t0.elapsed().as_secs_f64();
    let server = Server::start(
        server_config(mix(seed, 3)),
        catalog,
        Telemetry::with_defaults(),
    )?;
    let addr = server.local_addr().to_string();
    let mut clients = Vec::new();
    for c in 0..SERVE_CONNECTIONS {
        let mut client = Client::connect(&addr)?;
        for i in 0..SERVE_WARMUP_PER_CONN {
            client.query(
                &sqls[(c * SERVE_WARMUP_PER_CONN + i) % sqls.len()],
                false,
                None,
            )?;
        }
        clients.push(client);
    }
    Ok(Running {
        server,
        clients,
        datagen_s,
    })
}

/// Drains the server and checks its terminal accounting.
fn stop(running: Running, report: &mut Report) {
    drop(running.clients);
    let drain = running.server.shutdown();
    if drain.leaked != 0 || drain.admitted != drain.terminal {
        report.failed += drain
            .leaked
            .max(drain.admitted.abs_diff(drain.terminal))
            .max(1);
        report.note(format!("drain accounting broken: {drain:?}"));
    }
}

#[derive(Default)]
struct LoopResult {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    /// Seconds from the first due time to the last reply.
    span_s: f64,
}

/// One open loop of `seconds` over the running server's connections.
fn open_loop(
    clients: &mut [Client],
    sqls: &[String],
    expected: &[Response],
    order_seed: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> LoopResult {
    let total = ((SERVE_RATE_PER_S * seconds).round() as u64).max(1);
    let mut rng = StdRng::seed_from_u64(order_seed);
    let order: Vec<usize> = (0..total).map(|_| rng.gen_range(0..sqls.len())).collect();
    let conns = clients.len();
    let start = Instant::now() + Duration::from_millis(5);
    let per_conn: Vec<(LoopResult, Tracer, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let order = &order;
                let mut tr = tr.sibling();
                scope.spawn(move || {
                    let mut out = LoopResult::default();
                    let mut last_done = start;
                    for i in arrivals_of(c, conns, total) {
                        let due = start + due_offset(i, SERVE_RATE_PER_S);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                        let sent = Instant::now();
                        let sql = order[i as usize];
                        let reply = client.query(&sqls[sql], false, None);
                        let done = Instant::now();
                        // A transport error or any terminal but the expected
                        // `OK rows checksum` is a failed operation.
                        if !reply.is_ok_and(|r| r.terminal == expected[sql]) {
                            out.failed += 1;
                        }
                        out.latency_ms.push((done - due).as_secs_f64() * 1e3);
                        out.late_ms.push((sent - due).as_secs_f64() * 1e3);
                        tr.enter_at("serve.request", i, due);
                        tr.enter_at("loadgen.late", i, due);
                        tr.exit_at(sent);
                        tr.enter_at("client.query", i, sent);
                        tr.exit_at(done);
                        tr.exit_at(done);
                        last_done = done;
                    }
                    (out, tr, last_done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = LoopResult::default();
    let mut last_done = start;
    for (part, part_tr, done) in per_conn {
        all.latency_ms.extend(part.latency_ms);
        all.late_ms.extend(part.late_ms);
        all.failed += part.failed;
        tr.merge(part_tr);
        last_done = last_done.max(done);
    }
    all.span_s = (last_done - start).as_secs_f64();
    all
}

/// The same SQL through the same layers without the wire, the queue or the
/// thread hand-offs: `Request::parse` → `parse` → a one-query session →
/// `Response::encode`. Gives each statement's expected reply, and under
/// tracing the in-process latency `server.overhead_ms` is measured against.
fn replay(
    catalog: &Catalog,
    sql: &str,
    seed: u64,
    id: u64,
    tr: &mut Tracer,
) -> Res<(Response, SessionRun)> {
    let line = Request::Query {
        sql: sql.to_string(),
        want_rows: false,
        deadline_ms: None,
    }
    .encode();
    tr.enter("replay.request", id);
    tr.enter("server.protocol_parse", id);
    let request = Request::parse(&line);
    tr.exit();
    let Request::Query { sql, .. } = request? else {
        return Err("QUERY line parsed to another request".into());
    };
    tr.enter("query.parse", id);
    let query = parse(catalog, &sql);
    tr.exit();
    let engine = RouletteEngine::new(catalog, engine_config(seed)?);
    let run = traced_session(tr, &engine, &[query?], id, None)?;
    let result = run.results[0];
    let response = Response::Ok {
        rows: result.rows,
        checksum: result.checksum,
    };
    tr.enter("server.protocol_encode", id);
    std::hint::black_box(response.encode());
    tr.exit();
    tr.exit();
    if !result.is_complete() {
        return Err(format!("replay of {sql:?} was quarantined").into());
    }
    Ok((response, run))
}

pub fn run(args: &Args) -> Res<Report> {
    let mut report = Report::default();
    let mut tr = Tracer::new(Instant::now(), args.trace);
    let mut off = Tracer::off();

    // The statements and their expected replies, from a catalog of the
    // benchmark's own (the server owns the one it hosts).
    let ds = tpcds::generate(SERVE_SF, mix(args.seed, 1));
    let pool = tpcds_pool(
        &ds,
        SensitivityParams::default(),
        SERVE_SQL_POOL,
        QUERY_SEED,
    )?;
    let sqls: Vec<String> = pool.iter().map(|q| to_sql(&ds.catalog, q)).collect();
    let expected = sqls
        .iter()
        .map(|sql| Ok(replay(&ds.catalog, sql, mix(args.seed, 3), 0, &mut off)?.0))
        .collect::<Res<Vec<Response>>>()?;

    // Set-up: data, server start, connections, closed-loop warm-up.
    let mut setups_s = Vec::new();
    let mut datagens_s = Vec::new();
    let mut running = None;
    for _ in 0..SETUPS {
        if let Some(previous) = running.take() {
            stop(previous, &mut report);
        }
        let t0 = Instant::now();
        let r = start(args.seed, &sqls)?;
        setups_s.push(t0.elapsed().as_secs_f64());
        datagens_s.push(r.datagen_s);
        running = Some(r);
    }
    let mut running = running.expect("SETUPS > 0");

    let untraced_seconds = if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    };
    let plain = open_loop(
        &mut running.clients,
        &sqls,
        &expected,
        mix(args.seed, 2),
        untraced_seconds,
        &mut off,
    );
    report.attempted += plain.latency_ms.len() as u64;
    report.failed += plain.failed;
    let ok = plain.latency_ms.len() as u64 - plain.failed;
    report.note(format!(
        "loadgen lateness p50 {:.4} ms, p99 {:.4} ms (send − due; validity check)",
        percentile(&plain.late_ms, 0.5),
        percentile(&plain.late_ms, 0.99)
    ));

    if !args.trace {
        stop(running, &mut report);
        report.put_end_to_end(&plain.latency_ms, ok as f64 / plain.span_s, &setups_s);
        return Ok(report);
    }

    // Traced run: the same loop with a span per request, then the statements
    // replayed in process with a span per layer call.
    let traced = open_loop(
        &mut running.clients,
        &sqls,
        &expected,
        mix(args.seed, 4),
        args.seconds * 0.4,
        &mut tr,
    );
    report.attempted += traced.latency_ms.len() as u64;
    report.failed += traced.failed;
    // Read before the drain, whose wake-up connection counts as one shed.
    let metrics = running.server.metrics();
    let (admitted, batches, shed) = (
        metrics.admitted.total(),
        metrics.batches.total(),
        metrics.shed.total(),
    );
    stop(running, &mut report);

    let mut first = ExecTotals::default();
    let mut all = ExecTotals::default();
    let mut pass = 0u64;
    let phase = Instant::now();
    while pass == 0 || phase.elapsed().as_secs_f64() < args.seconds * 0.2 {
        for (i, sql) in sqls.iter().enumerate() {
            let id = pass * sqls.len() as u64 + i as u64;
            let (reply, run) = replay(&ds.catalog, sql, mix(args.seed, 3), id, &mut tr)?;
            report.attempted += 1;
            report.failed += u64::from(reply != expected[i]);
            if pass == 0 {
                first.add(1, &run.stats, run.probe);
            }
            all.add(1, &run.stats, run.probe);
        }
        pass += 1;
    }

    let serve_p50 = percentile(&traced.latency_ms, 0.5);
    let replay_ms: Vec<f64> = tr
        .durations_us("replay.request")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    let protocol_us: Vec<f64> = tr
        .durations_us("server.protocol_parse")
        .iter()
        .zip(tr.durations_us("server.protocol_encode"))
        .map(|(p, e)| p + e)
        .collect();
    let parses = tr.durations_us("query.parse");
    let lates: Vec<f64> = [&plain.late_ms[..], &traced.late_ms[..]].concat();

    report.put("storage.datagen_s", median(&datagens_s), datagens_s.len());
    report.put("query.parse_us", median(&parses), parses.len());
    put_exec_layers(&mut report, &tr, &first, &all);
    report.put(
        "server.overhead_ms",
        serve_p50 - median(&replay_ms),
        replay_ms.len(),
    );
    report.put(
        "server.protocol_us",
        median(&protocol_us),
        protocol_us.len(),
    );
    report.put(
        "server.batch_mean",
        admitted as f64 / batches.max(1) as f64,
        batches as usize,
    );
    report.put("server.shed", shed as f64, 1);
    report.put("loadgen.late_p50_ms", percentile(&lates, 0.5), lates.len());
    report.put("loadgen.late_p99_ms", percentile(&lates, 0.99), lates.len());
    put_trace_summary(
        &mut report,
        &tr,
        serve_p50,
        percentile(&plain.latency_ms, 0.5),
    );
    report.tracer = Some(tr);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_not_the_replies() {
        assert_eq!(due_offset(0, 200.0), Duration::ZERO);
        assert_eq!(due_offset(1, 200.0), Duration::from_millis(5));
        assert_eq!(due_offset(200, 200.0), Duration::from_secs(1));
        assert_eq!(due_offset(3000, 200.0), Duration::from_secs(15));
    }

    #[test]
    fn connections_split_the_schedule_without_gaps_or_overlap() {
        let mut seen: Vec<u64> = (0..3).flat_map(|c| arrivals_of(c, 3, 10)).collect();
        assert_eq!(arrivals_of(1, 3, 10).collect::<Vec<_>>(), [1, 4, 7]);
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(arrivals_of(2, 2, 2).count(), 0);
    }
}
