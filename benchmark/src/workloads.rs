//! The workloads, their constants, and what every driver shares.
//!
//! Every constant lives here and is the same on both sides of a comparison;
//! nothing is calibrated at run time. `BENCHMARK.json` allows a workload only
//! a name and a one-line reason, so the constants could not go there.
//!
//! How `--seed` is used. The driver that accepts the benchmark compares runs
//! made with *different* seeds, so a workload must do the same amount of work
//! whatever the seed; what one random draw can move by more than a bound is
//! pinned to [`QUERY_SEED`]:
//!
//! - the query templates: which join shapes a batch holds sets its cost (a
//!   resampled 256-query batch moved 540–710 ms);
//! - the tables of `batch-joinheavy`: one draw of the skewed IMDB-like data
//!   moved its join work 50–82 M tuples;
//! - the arrivals and query churn of `stream-window`: one churn draw moved the
//!   epoch time 12.5–22.9 ms.
//!
//! The seed regenerates the TPC-DS-like tables (their contents average out),
//! orders the requests of `serve-open` and seeds the stream's policy. Nothing
//! of `batch-joinheavy` is left for it to change: any perturbation of that
//! workload's input sends the policy down another trajectory, which is the
//! ±20% the fixed cycle of [`EXPLORE_SEEDS`] exists to average.

use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::Tracer;
use roulette_core::EngineConfig;
use roulette_exec::{EngineStats, QueryResult, RouletteEngine};
use roulette_policy::{Policy, RandomPolicy};
use roulette_query::SpjQuery;
use roulette_telemetry::PolicyProbe;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

pub const NAMES: [&str; 5] = [
    "batch-shared",
    "batch-selective",
    "batch-joinheavy",
    "serve-open",
    "stream-window",
];

/// Seed of everything that is pinned: query templates, and the tables of
/// `batch-joinheavy`.
pub const QUERY_SEED: u64 = 42;
/// Policy exploration seeds a batch workload cycles through, one per
/// iteration. One seed's luck moves a `batch-joinheavy` iteration by ±20%, so
/// a run measures the same few seeds every time; a single seed would instead
/// tie every later comparison to one trajectory of the policy.
pub const EXPLORE_SEEDS: u64 = 8;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Workers of every engine under test. `exec.workers2_speedup` alone uses 2.
pub const WORKERS: usize = 1;

/// One batch workload: `n_queries` executed as a single shared batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    pub name: &'static str,
    pub data: BatchData,
    pub n_queries: usize,
}

#[derive(Debug, Clone, Copy)]
pub enum BatchData {
    /// `tpcds::generate(sf, seed)`, snowflake-store queries of 4 joins at
    /// this query selectivity.
    Tpcds { sf: f64, selectivity: f64 },
    /// `imdb::generate(sf, QUERY_SEED)`, JOB-like queries of 3–13 joins.
    Imdb { sf: f64 },
}

pub const BATCHES: [BatchSpec; 3] = [
    BatchSpec {
        name: "batch-shared",
        data: BatchData::Tpcds {
            sf: 4.0,
            selectivity: 0.10,
        },
        n_queries: 256,
    },
    BatchSpec {
        name: "batch-selective",
        data: BatchData::Tpcds {
            sf: 4.0,
            selectivity: 0.001,
        },
        n_queries: 256,
    },
    BatchSpec {
        name: "batch-joinheavy",
        data: BatchData::Imdb { sf: 0.25 },
        n_queries: 12,
    },
];

/// `serve-open`: an open loop at a fixed rate over a few connections.
pub const SERVE_SF: f64 = 1.0;
pub const SERVE_SQL_POOL: usize = 64;
pub const SERVE_CONNECTIONS: usize = 2;
pub const SERVE_RATE_PER_S: f64 = 200.0;
/// Closed-loop requests per connection before timing starts.
pub const SERVE_WARMUP_PER_CONN: usize = 32;

/// `stream-window`: the default star stream, churn on, drift off.
pub const STREAM_EPOCHS: u64 = 72;
pub const STREAM_WINDOW: u64 = 8;
/// Live queries of the traced replay, which has no churn: the driver's
/// `target_queries`.
pub const STREAM_REPLAY_QUERIES: usize = 8;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// splitmix64 of `seed + salt`: independent streams from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The exploration seed of a batch workload's iteration `i`. Every run walks
/// the cycle in the same order: the allocator keeps what the largest
/// iteration so far needed, so another order gives another `peak_rss_mb`
/// (123–195 MB on `batch-joinheavy`).
pub fn explore_seed(i: u64) -> u64 {
    mix(QUERY_SEED, 100 + i % EXPLORE_SEEDS)
}

pub fn engine_config(seed: u64) -> Res<EngineConfig> {
    Ok(EngineConfig::default()
        .with_workers(WORKERS)?
        .with_seed(seed))
}

/// What one run measured: metric values by name, the operation counts, and
/// detail lines that are printed but not gated.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(&'static str, f64, usize)>,
    pub notes: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Records `value` for metric `name`, computed from `samples` samples.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.push((name, value, samples));
    }

    pub fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, s)| (v, s))
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.iter().map(|&(n, _, _)| n)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The end-to-end metrics, the same five for every workload. `ops_ms` is
    /// the time of each measured operation, counted from when it was due.
    pub fn put_end_to_end(&mut self, ops_ms: &[f64], queries_per_s: f64, setups_s: &[f64]) {
        let n = ops_ms.len();
        self.put("queries_per_s", queries_per_s, n);
        self.put("latency_p50_ms", percentile(ops_ms, 0.5), n);
        self.put("latency_p90_ms", percentile(ops_ms, 0.9), n);
        self.put("setup_s", median(setups_s), setups_s.len());
        self.put("peak_rss_mb", peak_rss_mb(), 1);
        self.note(format!(
            "latency_p99_ms {:.4} ms (n={n}; printed, not gated: too few samples beyond it)",
            percentile(ops_ms, 0.99)
        ));
    }
}

/// Totals over the engine sessions of a traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecTotals {
    pub queries: u64,
    pub stats: EngineStats,
    pub q_entries: u64,
    pub decisions: u64,
    pub explorations: u64,
}

impl ExecTotals {
    /// Adds one session. A policy's probe is cumulative over its life: pass
    /// it once per policy, with the last session the policy served.
    pub fn add(&mut self, queries: usize, s: &EngineStats, probe: Option<PolicyProbe>) {
        self.queries += queries as u64;
        let t = &mut self.stats;
        t.episodes += s.episodes;
        t.join_tuples += s.join_tuples;
        t.inserted_tuples += s.inserted_tuples;
        t.pruned_tuples += s.pruned_tuples;
        t.materialized_cells += s.materialized_cells;
        t.filter_ns += s.filter_ns;
        t.build_ns += s.build_ns;
        t.probe_ns += s.probe_ns;
        t.route_ns += s.route_ns;
        // STeM state is per session, so memory follows the largest one.
        t.stem_bytes = t.stem_bytes.max(s.stem_bytes);
        if let Some(p) = probe {
            self.q_entries += p.q_entries;
            self.decisions += p.decisions;
            self.explorations += p.explorations;
        }
    }
}

pub struct SessionRun {
    pub results: Vec<QueryResult>,
    pub stats: EngineStats,
    pub probe: Option<PolicyProbe>,
    /// The session's policy, for a caller that carries it to the next session.
    pub policy: Box<dyn Policy>,
}

/// Drives one session through its public steps — open, admit × n, close,
/// step until drained, finish — with a span around each, so every admit and
/// every episode is visible. `execute_batch` does the same in one call.
pub fn traced_session(
    tr: &mut Tracer,
    engine: &RouletteEngine<'_>,
    queries: &[SpjQuery],
    id: u64,
    policy: Option<Box<dyn Policy>>,
) -> Res<SessionRun> {
    tr.enter("exec.open", id);
    let mut session = match policy {
        Some(p) => engine.session_with_policy(queries.len(), p),
        None => engine.session(queries.len()),
    };
    tr.exit();
    for q in queries {
        let q = q.clone();
        tr.enter("exec.admit", id);
        let admitted = session.admit(q);
        tr.exit();
        admitted?;
    }
    tr.enter("exec.close", id);
    session.close();
    tr.exit();
    loop {
        tr.enter("exec.step", id);
        let more = session.step();
        tr.exit();
        if !more {
            break;
        }
    }
    tr.enter("exec.finish", id);
    let policy = session.replace_policy(Box::new(RandomPolicy::new(0)));
    let outcome = session.finish();
    tr.exit();
    Ok(SessionRun {
        results: outcome.per_query,
        stats: outcome.stats,
        probe: policy.probe(),
        policy,
    })
}

/// The `policy.*` and `exec.*` metrics. Exact counts come from `first`, the
/// first traced pass, whose inputs depend on the seed alone; times come from
/// `all` passes and from the spans.
pub fn put_exec_layers(report: &mut Report, tr: &Tracer, first: &ExecTotals, all: &ExecTotals) {
    let s = &first.stats;
    let per_query = |v: u64| v as f64 / first.queries.max(1) as f64;
    report.put("policy.join_tuples_per_query", per_query(s.join_tuples), 1);
    report.put("policy.materialized_cells", s.materialized_cells as f64, 1);
    report.put("policy.q_entries", first.q_entries as f64, 1);
    report.put(
        "policy.explore_share",
        first.explorations as f64 / first.decisions.max(1) as f64,
        first.decisions as usize,
    );
    report.put("exec.episodes", s.episodes as f64, 1);
    report.put("exec.inserted_tuples", s.inserted_tuples as f64, 1);
    report.put("exec.pruned_tuples", s.pruned_tuples as f64, 1);
    report.put("exec.stem_bytes", s.stem_bytes as f64, 1);

    let admits = tr.durations_us("exec.admit");
    let steps = tr.durations_us("exec.step");
    report.put("exec.admit_us", median(&admits), admits.len());
    report.put("exec.step_p50_us", percentile(&steps, 0.5), steps.len());
    report.put("exec.step_p90_us", percentile(&steps, 0.9), steps.len());

    // Session wall time: everything spent inside the exec layer's calls.
    let exec_ns: u64 = [
        "exec.open",
        "exec.admit",
        "exec.close",
        "exec.step",
        "exec.finish",
    ]
    .iter()
    .map(|n| tr.total_ns(n))
    .sum();
    let share = |ns: u64| ns as f64 / exec_ns.max(1) as f64;
    let t = &all.stats;
    report.put("exec.filter_share", share(t.filter_ns), 1);
    report.put("exec.build_share", share(t.build_ns), 1);
    report.put("exec.probe_share", share(t.probe_ns), 1);
    report.put("exec.route_share", share(t.route_ns), 1);
    let phases = t.filter_ns + t.build_ns + t.probe_ns + t.route_ns;
    report.put("exec.other_share", share(exec_ns.saturating_sub(phases)), 1);
}

/// Self time per span name, and the share of root-span time that named
/// child spans account for.
pub fn put_trace_summary(report: &mut Report, tr: &Tracer, traced_ms: f64, untraced_ms: f64) {
    report.put("trace.coverage", tr.coverage(), tr.spans().len());
    report.put("trace.overhead", traced_ms / untraced_ms, 1);
    for (name, (calls, total_ns, self_ns)) in tr.self_times() {
        report.note(format!(
            "span {name}: calls={calls} total_ms={:.3} self_ms={:.3}",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        ));
    }
}

pub fn run(name: &str, args: &Args) -> Res<Report> {
    if let Some(spec) = BATCHES.iter().find(|b| b.name == name) {
        return crate::batch::run(spec, args);
    }
    match name {
        "serve-open" => crate::serve::run(args),
        "stream-window" => crate::stream::run(args),
        _ => Err(format!("unknown workload {name:?}; known: {NAMES:?}").into()),
    }
}

/// The constants and configuration of `name`, stamped on every output.
pub fn describe(name: &str) -> String {
    let engine = format!(
        "{:?}",
        EngineConfig {
            workers: WORKERS,
            ..EngineConfig::default()
        }
    );
    if let Some(spec) = BATCHES.iter().find(|b| b.name == name) {
        return format!(
            "{spec:?} query_seed={QUERY_SEED} explore_seeds={EXPLORE_SEEDS} setups={SETUPS} \
             engine(seed per iteration)={engine}"
        );
    }
    match name {
        "serve-open" => format!(
            "tpcds sf={SERVE_SF} sql_pool={SERVE_SQL_POOL} connections={SERVE_CONNECTIONS} \
             open_loop_rate={SERVE_RATE_PER_S}/s warmup_per_conn={SERVE_WARMUP_PER_CONN} \
             query_seed={QUERY_SEED} setups={SETUPS} server={:?}",
            crate::serve::server_config(0)
        ),
        "stream-window" => format!(
            "epochs={STREAM_EPOCHS} window={STREAM_WINDOW} replay_queries={STREAM_REPLAY_QUERIES} \
             setups={SETUPS} stream={:?}",
            crate::stream::stream_config(0)
        ),
        _ => String::new(),
    }
}
