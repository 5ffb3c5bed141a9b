//! Episode execution (§3's executor, steps 1–5 of Figure 6).
//!
//! Each episode processes one ingested vector end-to-end: (i) the
//! selection phase filters query-sets through grouped filters in the
//! eddy's chosen order; (ii) symmetric join pruning semi-joins the vector
//! against fully-ingested neighboring STeMs; (iii) the survivors are
//! inserted into the scanned relation's STeM (making the join symmetric)
//! under a fresh global version — unless every relation their queries join
//! it with is already complete, in which case nothing can ever probe that
//! build and it is elided; (iv) the join-phase plan probes the other
//! STeMs, routing divergence branches and, at null decisions, multicasting
//! SPJ results to the per-query sinks — a probe whose output goes straight
//! to a router (a *leaf* probe) routes it tile by tile and never
//! materialises it; (v) the execution log is fed back to the learned
//! policy.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::fault::{FaultInjector, FaultSite, LiveSet};
use crate::filter::SelectionFilter;
use crate::kernels::{self, pairs};
use crate::output::Outputs;
use crate::planner::{
    assign_projections, plan_join_phase, plan_selection_phase, JoinNode, Leaf, ProbeNode,
};
use crate::profile::{Category, Profile};
use crate::router::{route, EpisodeSink, RouteScratch};
use crate::scratch::{EpisodeScratch, ProbeStaging};
use crate::spaces::{JoinSpace, SelectionSpace};
use crate::stem::{Stem, Walk, PROBE_TILE, VERSION_ALL};
use crate::vector::DataVector;
use roulette_core::{
    ColId, EngineConfig, Error, QueryId, QuerySet, QuerySetColumn, RelId, RelSet,
};
use roulette_policy::{ExecutionLog, GreedyPolicy, Policy, Scope};
use roulette_query::QueryBatch;
use roulette_storage::{Catalog, IngestVector};
use roulette_telemetry::{EpisodeSample, EventKind, Recorder};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Engine-wide counters shared across workers.
#[derive(Debug, Default)]
pub struct SharedStats {
    /// Episodes executed.
    pub episodes: AtomicU64,
    /// Intermediate join tuples (Σ probe outputs) — §6.2's cost metric.
    pub join_tuples: AtomicU64,
    /// Tuples inserted into STeMs.
    pub inserted_tuples: AtomicU64,
    /// Tuples that entered the join phase without being inserted, because
    /// every join partner of their queries was already complete.
    pub elided_tuples: AtomicU64,
    /// Tuples dropped by symmetric join pruning.
    pub pruned_tuples: AtomicU64,
    /// Intermediate vID cells materialized by probe outputs (adaptive-
    /// projection ablation metric).
    pub materialized_cells: AtomicU64,
    /// Projected values the router folded into a row hash (see
    /// [`crate::EngineStats::routed_values`]).
    pub routed_values: AtomicU64,
    /// Queries evicted from the shared plan (faults, memory pressure).
    pub quarantined: AtomicU64,
    /// Episodes whose join phase was aborted and replanned by the watchdog.
    pub watchdog_trips: AtomicU64,
}

/// One Fig. 16 trace point: the episode's measured cost vs the policy's
/// pre-execution estimate of the best achievable cost.
#[derive(Debug, Clone, Copy)]
pub struct TraceEntry {
    /// Episode sequence number.
    pub episode: u64,
    /// Measured episode cost under the engine's cost model.
    pub measured: f64,
    /// Policy estimate (|best Q| × tuples entering the join phase).
    pub estimated: f64,
}

/// Immutable state shared by all workers during a run.
pub struct EngineShared<'a> {
    /// Host storage.
    pub catalog: &'a Catalog,
    /// Engine configuration.
    pub config: &'a EngineConfig,
    /// The scheduled batch.
    pub batch: &'a QueryBatch,
    /// Per-relation STeMs (None for unscanned relations).
    pub stems: &'a [Option<Stem>],
    /// Per-selection-group filters (aligned with `batch.selection_groups`).
    /// Admission empties the slots of the groups it extends; the first
    /// episode that evaluates an empty slot builds its filter
    /// (DESIGN.md §6).
    pub filters: &'a [OnceLock<SelectionFilter>],
    /// Per-selection-group predicate owners.
    pub sel_owners: &'a [QuerySet],
    /// The capacity-wide full query-set.
    pub full_set: &'a QuerySet,
    /// Per-query projected relations.
    pub proj_rels: &'a [RelSet],
    /// Per-query projection columns.
    pub projections: &'a [Vec<(RelId, ColId)>],
    /// Output sinks.
    pub outputs: &'a Outputs,
    /// Time breakdown.
    pub profile: &'a Profile,
    /// Shared counters.
    pub stats: &'a SharedStats,
    /// The batch-versioning counter.
    pub global_version: &'a AtomicU32,
    /// Cost model (for traces).
    pub cost: &'a roulette_core::CostModel,
    /// Live (non-quarantined) queries; episodes mask their vectors against
    /// it at start and their outputs against it at flush.
    pub live: &'a LiveSet,
    /// Deterministic fault injector (tests only; `None` in production).
    pub injector: Option<&'a FaultInjector>,
    /// Greedy fallback policy the watchdog replans with. Kept warm with the
    /// same observations as the learned policy (when a watchdog is armed).
    pub fallback: &'a roulette_core::sync::Mutex<GreedyPolicy>,
    /// Session quarantine hook: evicts a query from the shared plan and
    /// records the attributed error.
    pub quarantine: &'a (dyn Fn(QueryId, Error) + Sync),
    /// Memory-pressure level under the budget ladder: 0 below 80% of
    /// budget, 1 at ≥80% (pruning forced on), 2 at ≥90% (admissions
    /// refused), 3 while evicting to fit an insert.
    pub pressure: &'a AtomicU8,
    /// Telemetry sink; `None` keeps every instrumentation site a single
    /// branch.
    pub recorder: Option<&'a dyn Recorder>,
}

impl<'a> EngineShared<'a> {
    /// The STeM of `rel`: `None` for a relation no query scans — or, were
    /// a plan ever to name a relation outside the batch, for that too.
    #[inline]
    pub(crate) fn stem(&self, rel: RelId) -> Option<&'a Stem> {
        self.stems.get(rel.index()).and_then(Option::as_ref)
    }
}

/// Watchdog over one episode's join phase: trips once the phase exceeds its
/// tuple or wall-clock budget, after which the episode discards the phase's
/// staged outputs and log and replans with the greedy fallback policy.
struct JoinGuard {
    tuples_left: Option<u64>,
    deadline: Option<Instant>,
    tripped: bool,
}

impl JoinGuard {
    fn from_config(config: &EngineConfig) -> Self {
        JoinGuard {
            tuples_left: config.episode_tuple_budget,
            deadline: config
                .episode_time_budget_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            tripped: false,
        }
    }

    fn unbounded() -> Self {
        JoinGuard { tuples_left: None, deadline: None, tripped: false }
    }

    /// Charges `n` produced tuples (one probe tile's survivors); returns
    /// whether the guard is tripped.
    fn charge(&mut self, n: u64) -> bool {
        if !self.tripped {
            if let Some(left) = &mut self.tuples_left {
                if *left < n {
                    self.tripped = true;
                } else {
                    *left -= n;
                }
            }
        }
        if !self.tripped {
            if let Some(deadline) = self.deadline {
                self.tripped = Instant::now() >= deadline;
            }
        }
        self.tripped
    }
}

/// Clears `q`'s bit from every tuple of `vec`, dropping tuples whose
/// query-set empties. Query-bit independence makes this result-safe for the
/// surviving queries. One broadcast-subtract kernel call plus a mask-driven
/// compaction.
// lint: hot-loop
fn scrub_query(vec: &mut DataVector, q: QueryId, scratch: &mut EpisodeScratch) {
    let width = vec.qsets.words_per_set();
    let EpisodeScratch { mask, keep, .. } = scratch;
    mask.clear();
    mask.resize(width, 0);
    if let Some(w) = mask.get_mut(q.index() / 64) {
        *w = 1u64 << (q.index() % 64);
    }
    kernels::qset_subtract_broadcast(&mut vec.qsets, mask, keep);
    vec.retain_mask(keep);
}

/// The memory governor's eviction choice: the candidate with the largest
/// per-query STeM footprint share, `Σ_{r ∈ q.relations} bytes(r) / live
/// sharers of r`. Ties resolve to the lowest id (iteration order), keeping
/// eviction deterministic.
fn heaviest_query(shared: &EngineShared<'_>, candidates: &QuerySet) -> Option<QueryId> {
    let live = shared.live.snapshot();
    let mut best: Option<(f64, QueryId)> = None;
    for q in candidates.iter() {
        let mut score = 0.0;
        for r in shared.batch.query(q).relations.iter() {
            let Some(stem) = shared.stem(r) else { continue };
            let sharers = shared.batch.rel_queries(r).intersection(&live).len().max(1);
            score += stem.memory_bytes() as f64 / sharers as f64;
        }
        if best.is_none_or(|(s, _)| score > s) {
            best = Some((score, q));
        }
    }
    best.map(|(_, q)| q)
}

/// Publishes a memory-pressure level and, when it changed and a recorder
/// is attached, emits the ladder-transition event. Workers race on the
/// swap; telemetry sees each transition at least once per actual change.
fn record_pressure(shared: &EngineShared<'_>, level: u8) {
    // ordering: the ladder level is advisory — workers acting on a stale
    // level only prune/pause one episode late, which is safe.
    let prev = shared.pressure.swap(level, Ordering::Relaxed);
    if prev != level {
        if let Some(rec) = shared.recorder {
            rec.record_event(
                shared.stats.episodes.load(Ordering::Relaxed),
                EventKind::MemoryPressure { from: prev, to: level },
            );
        }
    }
}

/// The typed exit for a scan vector the episode cannot process — it lost
/// its scan column (`refill_scan` installs it and compaction keeps it), or
/// the selection order names a filter the batch does not have. Either is a
/// defect, but rather than panic the worker or publish a partial result,
/// the vector's queries are quarantined with an internal error naming the
/// `defect` and the vector is emptied: the episode winds down through its
/// normal empty-vector exits.
fn abandon_vector(
    shared: &EngineShared<'_>,
    queries: &QuerySet,
    vec: &mut DataVector,
    defect: &str,
) {
    for q in queries.iter() {
        (shared.quarantine)(q, Error::Internal(format!("{q}: {defect}")));
    }
    vec.qsets.clear();
}

/// [`abandon_vector`] for a scan vector of `rel` without its scan column.
fn orphan_vector(shared: &EngineShared<'_>, rel: RelId, queries: &QuerySet, vec: &mut DataVector) {
    abandon_vector(shared, queries, vec, &format!("a scan vector of {rel} lost its scan column"));
}

/// Runs one episode. `complete` is the set of relations whose scans have
/// finished and whose episodes have all retired (pruning and build-elision
/// eligibility), derived fresh at episode start.
/// `scratch` is the worker's pooled arena — every per-episode buffer is
/// drawn from it and returned, so a warm arena runs the episode without
/// allocating. Returns a Fig. 16 trace point when `trace` is set.
pub fn run_episode(
    shared: &EngineShared<'_>,
    iv: &IngestVector,
    complete: RelSet,
    policy: &roulette_core::sync::Mutex<Box<dyn roulette_policy::Policy>>,
    log: &mut ExecutionLog,
    scratch: &mut EpisodeScratch,
    trace: bool,
) -> Option<TraceEntry> {
    log.clear();
    let rel = iv.rel;
    let batch = shared.batch;
    // Episode wall-clock is only measured when someone will consume it.
    let t0_episode = if shared.recorder.is_some() { Some(Instant::now()) } else { None };
    let scanned = (iv.end - iv.start) as u64;

    // --- Quarantine masking + ingestion fault site -----------------------
    // Vectors are annotated at schedule time; queries quarantined since then
    // are masked out here, so an evicted query stops consuming shared work
    // within one episode.
    let mut queries = iv.queries.intersection(&shared.live.snapshot());
    if let Some(inj) = shared.injector {
        if let Some((q, e)) = inj.check(FaultSite::Ingestion, &queries) {
            (shared.quarantine)(q, e);
            queries.remove(q);
        }
    }
    if queries.is_empty() {
        let episode = shared.stats.episodes.fetch_add(1, Ordering::Relaxed);
        if let Some(rec) = shared.recorder {
            rec.record_episode(&EpisodeSample {
                episode,
                latency_ns: t0_episode.map_or(0, |t| t.elapsed().as_nanos() as u64),
                scanned,
                capacity: shared.config.vector_size as u64,
                selected: 0,
                inserted: 0,
                elided: 0,
            });
        }
        return None;
    }

    let jspace = JoinSpace::new(batch);
    let sspace = SelectionSpace::new(batch, rel, shared.sel_owners, shared.full_set);

    // --- Planning (policy latch held across the episode's decisions) ----
    let t_plan = Instant::now();
    let (sel_order, mut join_plan, estimate) = {
        let mut p = policy.lock();
        let sel_order = plan_selection_phase(&sspace, &mut **p, rel, &queries);
        let plan = plan_join_phase(batch, &jspace, &mut **p, rel, &queries);
        let est = if trace {
            -p.estimate(Scope::JOIN, RelSet::singleton(rel).0, &queries, &jspace)
        } else {
            0.0
        };
        (sel_order, plan, est)
    };
    assign_projections(
        &mut join_plan,
        rel,
        shared.proj_rels,
        shared.projections,
        shared.config.adaptive_projections,
    );
    shared.profile.add(Category::Plan, t_plan.elapsed().as_nanos() as u64);

    let mut vec = scratch.take_vector(queries.width());
    let scan_col = scratch.take_col();
    vec.refill_scan(rel, iv.start, iv.end, &queries, scan_col);

    // --- Selection phase -------------------------------------------------
    // lint: hot-loop
    let t0 = Instant::now();
    if let Some(inj) = shared.injector {
        if let Some((q, e)) = inj.check(FaultSite::Filter, &queries) {
            (shared.quarantine)(q, e);
            queries.remove(q);
            scrub_query(&mut vec, q, scratch);
        }
    }
    let mut lineage = 0u64;
    let relation = shared.catalog.relation(rel);
    let groups = batch.selections_of(rel);
    for &op in &sel_order {
        if vec.is_empty() {
            break;
        }
        let gid = groups.get(op as usize).map(|&g| g as usize);
        let group = gid.and_then(|g| batch.selection_groups().get(g));
        let (Some(group), Some(slot)) = (group, gid.and_then(|g| shared.filters.get(g))) else {
            let defect = format!("selection operator {op} of {rel} has no filter");
            abandon_vector(shared, &queries, &mut vec, &defect);
            break;
        };
        // Built once per admission wave, by whichever episode needs it
        // first; concurrent first users wait for that one build.
        let filter = slot.get_or_init(|| {
            SelectionFilter::build(&group.preds, batch.capacity(), shared.config.grouped_filters)
        });
        let Some(vids) = vec.vids_of(rel) else {
            orphan_vector(shared, rel, &queries, &mut vec);
            break;
        };
        relation.column(group.col).gather(vids, &mut scratch.values);
        let n_in = vec.len();
        // Whole-column kernel evaluation: segment lookup + qset AND + packed
        // survivor mask in one pass, then mask-driven compaction.
        match filter {
            SelectionFilter::Grouped(f) => {
                kernels::filter_grouped(f, &scratch.values, &mut vec.qsets, &mut scratch.keep)
            }
            SelectionFilter::Plain(f) => kernels::filter_plain(
                f,
                &scratch.values,
                &mut scratch.mask,
                &mut vec.qsets,
                &mut scratch.keep,
            ),
        }
        vec.retain_mask(&scratch.keep);
        log.push_reused(
            Scope::selection(rel),
            lineage,
            &queries,
            op,
            n_in as u64,
            vec.len() as u64,
            None,
        );
        lineage |= 1 << op;
        if vec.is_empty() {
            break;
        }
    }
    let selected = vec.len() as u64;

    // --- Symmetric join pruning ------------------------------------------
    // Pruning is forced on at memory-pressure level ≥ 1: it is result-safe
    // (drops only tuples that can never produce output) and shrinks STeM
    // growth, the first rung of the degradation ladder.
    let pruning = shared.config.pruning
        || (shared.config.memory_budget_bytes.is_some()
            // ordering: advisory ladder level; reading it one episode
            // stale only delays pruning by one vector.
            && shared.pressure.load(Ordering::Relaxed) >= 1);
    if pruning && !vec.is_empty() {
        prune_vector(shared, rel, complete, &queries, &mut vec, scratch);
    }
    shared.profile.add(Category::Filter, t0.elapsed().as_nanos() as u64);

    if let Some(inj) = shared.injector {
        if let Some((q, e)) = inj.check(FaultSite::StemInsert, &queries) {
            (shared.quarantine)(q, e);
            queries.remove(q);
            scrub_query(&mut vec, q, scratch);
        }
    }

    // --- Build elision -----------------------------------------------------
    // A symmetric join needs its build side only while partner tuples can
    // still arrive. Once every relation the vector's queries join `rel`
    // with is complete, nothing will ever probe what this vector would
    // insert — the invariant pruning already relies on (`complete_now`: no
    // insert carrying an executing vector's query bits can still arrive;
    // later admissions bring only new bits, and their own scans of `rel`).
    // §5.2's ranking scans the largest relation last, so this is the fate
    // of most of a batch's tuples. It rides the pruning switch: with
    // pruning off the engine is the plain symmetric join that builds
    // everything.
    let final_rels = complete.with(rel);
    let elide = pruning
        && queries.iter().all(|q| shared.batch.query(q).relations.is_subset_of(final_rels));

    // --- Memory-budget governance ----------------------------------------
    if let Some(budget) = shared.config.memory_budget_bytes {
        let used: usize = shared.stems.iter().flatten().map(|s| s.memory_bytes()).sum();
        let level = crate::engine::pressure_from_usage(used, budget);
        record_pressure(shared, level);
        if let Some(stem) = shared.stem(rel).filter(|_| !elide) {
            // Final rung: gate the insert itself (an elided vector inserts
            // nothing, so there is nothing to gate). Evict the heaviest
            // queries until the projected footprint fits the budget; an
            // emptied vector skips insert and join entirely, so resident
            // STeM bytes never overshoot by more than one vector's growth.
            loop {
                if vec.is_empty() {
                    break;
                }
                let projected = stem.projected_insert_bytes(vec.len());
                if used + projected <= budget {
                    break;
                }
                let Some(victim) = heaviest_query(shared, &queries) else { break };
                // Eviction is its own (transient) ladder level; the next
                // episode re-derives the level from post-eviction usage.
                record_pressure(shared, 3);
                (shared.quarantine)(
                    victim,
                    Error::QueryFault {
                        query: victim,
                        message: format!(
                            "evicted under memory pressure (budget {budget} bytes)"
                        ),
                    },
                );
                queries.remove(victim);
                scrub_query(&mut vec, victim, scratch);
            }
        }
    }

    // --- Insert (build side of the symmetric join) ------------------------
    // The sink is taken out of the arena for the episode's duration (the
    // join phase needs it and the arena borrowed apart) and restored after
    // the flush; a panic unwinding through the episode drops it, staged
    // outputs and all.
    let (mut inserted, mut elided) = (0u64, 0u64);
    let mut sink = std::mem::take(&mut scratch.sink);
    sink.collecting = shared.outputs.collecting();
    let join_input = vec.len() as u64;
    if !vec.is_empty() {
        if let Some(stem) = shared.stem(rel) {
            // An elided vector draws no version: every STeM it probes is
            // final.
            let mut version = VERSION_ALL;
            if elide {
                shared.stats.elided_tuples.fetch_add(join_input, Ordering::Relaxed);
                elided = join_input;
            } else if let Some(vids) = vec.vids_of(rel) {
                let t_build = Instant::now();
                let nkeys = stem.key_cols().len();
                if scratch.insert_keys.len() < nkeys {
                    scratch.insert_keys.resize_with(nkeys, Vec::new);
                }
                for (k, &c) in scratch.insert_keys.iter_mut().zip(stem.key_cols()) {
                    relation.column(c).gather(vids, k);
                }
                version = stem.insert_vector(
                    vids,
                    &vec.qsets,
                    scratch.insert_keys.get(..nkeys).unwrap_or(&[]),
                    shared.global_version,
                );
                shared.profile.add(Category::Build, t_build.elapsed().as_nanos() as u64);
                shared.stats.inserted_tuples.fetch_add(join_input, Ordering::Relaxed);
                inserted = join_input;
            } else {
                orphan_vector(shared, rel, &queries, &mut vec);
            }

            // --- Join phase ------------------------------------------------
            let log_mark = log.len();
            let mut guard = JoinGuard::from_config(shared.config);
            exec_join(shared, &join_plan, &vec, version, log, &mut sink, &mut guard, scratch);
            if guard.tripped {
                // Watchdog: the learned plan blew its budget. Discard the
                // phase's staged outputs and log, replan with the greedy
                // fallback, and re-run unbudgeted. The inserts kept their
                // versions, so the re-run sees the exact same STeM state
                // and produces the same result set.
                shared.stats.watchdog_trips.fetch_add(1, Ordering::Relaxed);
                if let Some(rec) = shared.recorder {
                    let ep = shared.stats.episodes.load(Ordering::Relaxed);
                    rec.record_event(ep, EventKind::WatchdogTrip { relation: rel.0 });
                    rec.record_event(ep, EventKind::FallbackReplan { relation: rel.0 });
                }
                sink.reset();
                log.truncate(log_mark);
                let t_replan = Instant::now();
                let mut fb_plan = {
                    let mut fb = shared.fallback.lock();
                    plan_join_phase(batch, &jspace, &mut *fb, rel, &queries)
                };
                assign_projections(
                    &mut fb_plan,
                    rel,
                    shared.proj_rels,
                    shared.projections,
                    shared.config.adaptive_projections,
                );
                shared.profile.add(Category::Plan, t_replan.elapsed().as_nanos() as u64);
                let mut unbounded = JoinGuard::unbounded();
                exec_join(shared, &fb_plan, &vec, version, log, &mut sink, &mut unbounded, scratch);
            }
        }
    }
    // Atomic commit point for the episode's outputs, masked by the queries
    // still live now.
    sink.flush(shared.outputs, shared.live);
    let routed_values = std::mem::take(&mut sink.routed_values);
    if routed_values > 0 {
        shared.stats.routed_values.fetch_add(routed_values, Ordering::Relaxed);
    }
    scratch.sink = sink;
    scratch.release_vector(vec);

    // --- Learning ----------------------------------------------------------
    let episode = shared.stats.episodes.fetch_add(1, Ordering::Relaxed);
    let join_out: u64 = log
        .entries()
        .iter()
        .filter(|e| e.scope == Scope::JOIN)
        .map(|e| e.n_out)
        .sum();
    shared.stats.join_tuples.fetch_add(join_out, Ordering::Relaxed);
    let t_learn = Instant::now();
    {
        let mut p = policy.lock();
        // Reverse order: children before parents, so bootstrapped values
        // propagate one level per episode at worst, usually further.
        for entry in log.entries().iter().rev() {
            if entry.scope == Scope::JOIN {
                p.observe(entry, &jspace);
            } else {
                p.observe(entry, &sspace);
            }
        }
    }
    if shared.config.episode_tuple_budget.is_some()
        || shared.config.episode_time_budget_ms.is_some()
    {
        // Keep the watchdog's fallback warm on the same observations, so a
        // replan after a trip has real selectivity estimates to work with.
        let mut fb = shared.fallback.lock();
        for entry in log.entries().iter().rev() {
            if entry.scope == Scope::JOIN {
                fb.observe(entry, &jspace);
            } else {
                fb.observe(entry, &sspace);
            }
        }
    }
    shared.profile.add(Category::Plan, t_learn.elapsed().as_nanos() as u64);

    // --- Telemetry ---------------------------------------------------------
    if let Some(rec) = shared.recorder {
        let (hits, misses) = scratch.take_reuse_counters();
        rec.record_scratch(hits, misses);
        rec.record_view_bytes(shared.stems.iter().flatten().map(|s| s.view_bytes() as u64).sum());
        rec.record_episode(&EpisodeSample {
            episode,
            latency_ns: t0_episode.map_or(0, |t| t.elapsed().as_nanos() as u64),
            scanned,
            capacity: shared.config.vector_size as u64,
            selected,
            inserted,
            elided,
        });
        let every = shared.config.telemetry.policy_probe_every;
        if every > 0 && episode.is_multiple_of(every) {
            if let Some(probe) = policy.lock().probe() {
                rec.record_policy_probe(episode, &probe);
            }
        }
    }

    if trace {
        // Join-phase cost only, so the trace is comparable to the policy's
        // join-plan estimate.
        let measured: f64 = log
            .entries()
            .iter()
            .filter(|e| e.scope == Scope::JOIN)
            .map(|e| shared.cost.cost(roulette_core::OpKind::Join, e.n_in, e.n_out))
            .sum();
        Some(TraceEntry { episode, measured, estimated: estimate * join_input as f64 })
    } else {
        None
    }
}

/// Semi-joins `vec` against every fully-ingested joinable STeM (§5.2):
/// for queries containing the edge, a tuple keeps its bit only if a match
/// carries it; emptied tuples are dropped before insertion.
// lint: hot-loop
fn prune_vector(
    shared: &EngineShared<'_>,
    rel: RelId,
    complete: RelSet,
    queries: &QuerySet,
    vec: &mut DataVector,
    scratch: &mut EpisodeScratch,
) {
    let batch = shared.batch;
    let relation = shared.catalog.relation(rel);
    let width = vec.qsets.words_per_set();
    for &eid in batch.edges_of(rel) {
        if vec.is_empty() {
            return;
        }
        let edge = batch.edge(eid);
        let Some((this_side, other_side)) = edge.oriented_from(rel) else { continue };
        if !complete.contains(other_side.0) {
            continue;
        }
        let Some(stem) = shared.stem(other_side.0) else { continue };
        let Some(index_id) = stem.index_of(other_side.1) else { continue };
        let edge_q = batch.edge_queries(eid);
        let Some(vids) = vec.vids_of(rel) else {
            orphan_vector(shared, rel, queries, vec);
            return;
        };
        relation.column(this_side.1).gather(vids, &mut scratch.values);
        let n_in = vec.len();
        // allowed(i) = (∪ matching entry query-sets) ∪ ¬Q_edge — queries
        // without this edge are unaffected by the semi-join. Seed every
        // row's mask with ¬Q_edge, then let the tiled semi-join OR the
        // matching entry sets in.
        let EpisodeScratch { values, stage, mask, .. } = scratch;
        mask.clear();
        mask.extend(edge_q.words().iter().map(|&w| !w));
        stage.row_masks.reset(width);
        stage.row_masks.push_repeat(mask, n_in);
        stem.semijoin_batch(index_id, values, &mut stage.probe, &mut stage.row_masks);
        if let Some(rec) = shared.recorder {
            let (view_keys, chain_keys) = stage.probe.path_key_counts();
            rec.record_probe_keys(view_keys, chain_keys);
        }
        // One bulk AND over the whole row range replaces the per-row
        // `and_row` loop; the survivor count falls out of the keep mask.
        kernels::qset_and(&mut vec.qsets, scratch.stage.row_masks.raw(), &mut scratch.keep);
        let dropped = (n_in - scratch.keep.count()) as u64;
        shared.stats.pruned_tuples.fetch_add(dropped, Ordering::Relaxed);
        vec.retain_mask(&scratch.keep);
    }
}

/// Upper bound on the tuple count of a vector entering a probe: larger
/// vectors are processed in chunks, bounding the pending-vector footprint
/// (§3), and a chunk's columns stay cache-resident from the copy to the
/// probe that reads them (DESIGN.md §10). One probe tile. What exceeds it
/// is an inner probe's output handed on (at most [`HANDOFF_ROWS`]) or a
/// scan vector when `vector_size` is larger than a tile: a
/// plan's final join output, usually its biggest intermediate, is routed
/// tile by tile inside its probe and never exists as a vector.
const MAX_PENDING_VECTOR: usize = PROBE_TILE;

/// Output rows at which an inner probe pauses its walk and hands the
/// output's whole tiles to the operators below it (DESIGN.md §10). The tile
/// that crosses it adds at most one more, so an inner output never reaches
/// three tiles — the bound on every plan level, however far the probe's
/// fan-out goes, where it used to be the whole output. Two tiles rather
/// than one: `batch-shared`'s many outputs between one and two tiles then
/// never hand off, and it needs no second staging level (a one-tile
/// threshold cost it 0.2–0.35 MB of peak RSS).
const HANDOFF_ROWS: usize = 2 * PROBE_TILE;

/// Executes the join-phase plan for `vec` (probe sub-plans first, then
/// divergence sub-plans, as in §3's executor walk-through).
// lint: hot-loop
#[allow(clippy::too_many_arguments)]
fn exec_join(
    shared: &EngineShared<'_>,
    node: &JoinNode,
    vec: &DataVector,
    version: u32,
    log: &mut ExecutionLog,
    sink: &mut EpisodeSink,
    guard: &mut JoinGuard,
    scratch: &mut EpisodeScratch,
) {
    if vec.is_empty() || guard.tripped {
        return;
    }
    if vec.len() > MAX_PENDING_VECTOR {
        exec_chunks(shared, node, vec, vec.len(), version, log, sink, guard, scratch);
        return;
    }
    match node {
        // A vector that reaches a router without a probe in between: a
        // divergence branch, or the scan vector of a single-relation query.
        JoinNode::Output(leaf) => {
            let t0 = Instant::now();
            open_leaf(shared, leaf);
            route_leaf(shared, leaf, &vec.qsets, vec.columns(), sink, &mut scratch.route);
            shared.profile.add(Category::Route, t0.elapsed().as_nanos() as u64);
        }
        JoinNode::Probe(p) => {
            let (main_vec, div_vec) =
                exec_probe(shared, p, vec, version, log, sink, guard, scratch);
            if !guard.tripped {
                exec_join(shared, &p.main, &main_vec, version, log, sink, guard, scratch);
                if let (Some(div_plan), Some(dv)) = (&p.div, &div_vec) {
                    exec_join(shared, div_plan, dv, version, log, sink, guard, scratch);
                }
            }
            scratch.release_vector(main_vec);
            if let Some(dv) = div_vec {
                scratch.release_vector(dv);
            }
        }
    }
}

/// Runs `node` over the first `rows` rows of `vec`, copied out in chunks of
/// at most `MAX_PENDING_VECTOR` rows.
// lint: hot-loop
#[allow(clippy::too_many_arguments)]
fn exec_chunks(
    shared: &EngineShared<'_>,
    node: &JoinNode,
    vec: &DataVector,
    rows: usize,
    version: u32,
    log: &mut ExecutionLog,
    sink: &mut EpisodeSink,
    guard: &mut JoinGuard,
    scratch: &mut EpisodeScratch,
) {
    let log_mark = log.len();
    let mut start = 0;
    while start < rows {
        let end = (start + MAX_PENDING_VECTOR).min(rows);
        let mut chunk = scratch.take_vector(vec.qsets.words_per_set());
        vec.copy_range_into(start, end, &mut chunk, scratch.col_pool_mut());
        exec_join(shared, node, &chunk, version, log, sink, guard, scratch);
        scratch.release_vector(chunk);
        if guard.tripped {
            return;
        }
        // Fold this chunk's log entries into the earlier chunks': the
        // policy sees one entry per plan node, as for the unchunked
        // vector, and the log stays as short as the plan.
        log.merge_from(log_mark);
        start = end;
    }
}

/// Everything about routing to `leaf` that may take a lock — the `Route`
/// fault site and the quarantine of queries whose projections the planner
/// could not resolve — done once, *before* any tuple is routed: a leaf
/// probe routes under a STeM's read latch, where quarantining (which
/// takes the session's output and ingestion locks) would invert the lock
/// order. Quarantine only: the flush-time live mask suppresses whatever
/// the dead query stages.
fn open_leaf(shared: &EngineShared<'_>, leaf: &Leaf) {
    if let Some(inj) = shared.injector {
        if let Some((q, e)) = inj.check(FaultSite::Route, &leaf.queries) {
            (shared.quarantine)(q, e);
        }
    }
    for &q in leaf.unresolved() {
        (shared.quarantine)(
            q,
            Error::Internal(format!(
                "{q} projects a column its router's input does not carry (planner defect)"
            )),
        );
    }
}

/// Routes the tuples `(qsets, cols)` to `leaf`'s queries with the session's
/// router: the one [`route`] call site for leaf tiles and direct vectors.
#[inline]
fn route_leaf(
    shared: &EngineShared<'_>,
    leaf: &Leaf,
    qsets: &QuerySetColumn,
    cols: &[(RelId, Vec<u32>)],
    sink: &mut EpisodeSink,
    scratch: &mut RouteScratch,
) {
    let locality = shared.config.locality_router;
    route(shared.catalog, locality, leaf, qsets, cols, sink, scratch);
}

/// One probe step, column-at-a-time: a broadcast AND-select compacts the
/// probe rows intersecting the main branch (their intersected query-sets
/// plus a selection list), the selected rows' keys are gathered in one
/// pass, and the STeM is probed through
/// [`probe_tiles`](crate::stem::Stem::probe_tiles) — per tile of at most
/// [`PROBE_TILE`](crate::stem::PROBE_TILE) match pairs, one pass ANDs the
/// pair query-sets into the output's query-set column and the carried vID
/// columns are then gathered one column at a time from the surviving
/// pairs. An *inner* probe (its main branch probes on) appends tile after
/// tile; once the output holds [`HANDOFF_ROWS`] it pauses the walk, hands
/// the output's whole tiles to the operators below ([`hand_off`]) with no
/// latch held, and resumes. An output that never got that far is returned, as
/// is, for the caller to hand on; one that did is handed on here, rest and
/// all, and the returned main vector is empty. A *leaf* probe (its main
/// branch is a router) routes each tile into `sink` on the spot and clears
/// it, so the plan's final join output never exceeds one tile and the
/// returned main vector is empty; the routed share of the probe's time is
/// booked to [`Category::Route`], the handed-off share to the operators
/// that ran. The watchdog is charged per tile, so an exploding probe stops
/// within one tile of its budget. The divergence branch is the same
/// AND-select over the full vector. The probe's log entry is reserved
/// before the walk and completed after it, so it precedes its subtree's.
/// The output order is identical to per-key probing, so outputs are
/// byte-identical.
// lint: hot-loop
#[allow(clippy::too_many_arguments)]
fn exec_probe(
    shared: &EngineShared<'_>,
    p: &ProbeNode,
    vec: &DataVector,
    version: u32,
    log: &mut ExecutionLog,
    sink: &mut EpisodeSink,
    guard: &mut JoinGuard,
    scratch: &mut EpisodeScratch,
) -> (DataVector, Option<DataVector>) {
    let t0 = Instant::now();
    if let Some(inj) = shared.injector {
        // Quarantine only: the in-flight vector keeps its bits (scrubbing
        // mid-join is wasted work), and the flush-time live mask suppresses
        // the dead query's outputs.
        if let Some((q, e)) = inj.check(FaultSite::StemProbe, &p.queries) {
            (shared.quarantine)(q, e);
        }
    }
    let leaf = match &p.main {
        JoinNode::Output(leaf) => Some(leaf),
        JoinNode::Probe(_) => None,
    };
    if let Some(leaf) = leaf {
        open_leaf(shared, leaf);
    }
    let width = vec.qsets.words_per_set();
    let cols = vec.columns();

    // Output builders, drawn from the arena with their carried columns
    // (source columns in input order, then the target's) in place, so the
    // passes below gather straight into them.
    let mut main_out = scratch.take_vector(width);
    scratch.stage.carry_main.clear();
    for (i, (r, _)) in cols.iter().enumerate() {
        if p.keep_main.contains(*r) {
            scratch.stage.carry_main.push(i);
            main_out.push_column(*r, scratch.take_col());
        }
    }
    let keep_target = p.keep_main.contains(p.target_rel);
    if keep_target {
        main_out.push_column(p.target_rel, scratch.take_col());
    }
    let mut div_out = p.div_queries.as_ref().map(|_| scratch.take_vector(width));
    scratch.stage.carry_div.clear();
    if let Some(dv) = &mut div_out {
        for (i, (r, _)) in cols.iter().enumerate() {
            if p.keep_div.contains(*r) {
                scratch.stage.carry_div.push(i);
                dv.push_column(*r, scratch.take_col());
            }
        }
    }

    // A plan only probes relations it scheduled and keys it indexed; were
    // that ever broken, the probe matches nothing rather than panicking.
    let stem = shared.stem(p.target_rel);
    let probe = stem.zip(vec.vids_of(p.probe_rel)).and_then(|(stem, vids)| {
        stem.index_of(p.target_col).map(|index_id| (stem, index_id, vids))
    });
    debug_assert!(probe.is_some(), "probe of an unscheduled relation or unindexed key");

    // Reserved here, completed after the walk: hand-offs log the subtree
    // below while the walk is still running.
    let entry = log.len();
    log.push_reused(Scope::JOIN, p.lineage.0, &p.queries, p.edge, vec.len() as u64, 0, None);

    let mut n_out = 0u64;
    let (mut route_ns, mut handoff_ns) = (0u64, 0u64);
    let mut handed_off = false;
    if let Some((stem, index_id, probe_vids)) = probe {
        // Pass 1: AND-select the rows whose query-set intersects the main
        // branch, then gather their probe vIDs and keys.
        let ProbeStaging { row_masks, active_rows, active_vids, probe_keys, .. } =
            &mut scratch.stage;
        row_masks.reset(width);
        pairs::and_select_rows(&vec.qsets, p.main_queries.words(), row_masks, active_rows);
        active_vids.clear();
        pairs::gather_u32(probe_vids, active_rows, active_vids);
        shared
            .catalog
            .relation(p.probe_rel)
            .column(p.probe_col)
            .gather(active_vids, probe_keys);

        // Passes 2 and 3, per tile of match pairs under the STeM's read
        // latch: the STeM ANDs the pair query-sets into the output's
        // query-set column, the carried columns are gathered here from the
        // surviving pairs — and a leaf routes the tile and takes it back
        // out. Nothing in here may take a lock. An inner output that holds
        // `HANDOFF_ROWS` pauses the walk; it resumes after the hand-off.
        let mut from = None;
        loop {
            let EpisodeScratch { stage, route: route_scratch, .. } = &mut *scratch;
            let ProbeStaging {
                probe, probe_keys, row_masks, active_rows, src_rows, carry_main, ..
            } = stage;
            let (out_cols, out_qsets) = main_out.parts_mut();
            from = stem.probe_tiles(
                index_id,
                probe_keys,
                version,
                row_masks,
                probe,
                out_qsets,
                from,
                |tile, out_qsets| {
                    if tile.is_empty() {
                        return if guard.charge(0) { Walk::Stop } else { Walk::Continue };
                    }
                    n_out += tile.len() as u64;
                    if !carry_main.is_empty() {
                        src_rows.clear();
                        pairs::gather_u32(active_rows, tile.rows(), src_rows);
                        for ((_, buf), &src) in out_cols.iter_mut().zip(carry_main.iter()) {
                            if let Some((_, col)) = cols.get(src) {
                                pairs::gather_u32(col, src_rows, buf);
                            }
                        }
                    }
                    if keep_target {
                        if let Some((_, buf)) = out_cols.last_mut() {
                            tile.extend_vids(buf);
                        }
                    }
                    if let Some(leaf) = leaf {
                        let t_route = Instant::now();
                        route_leaf(shared, leaf, out_qsets, out_cols, sink, route_scratch);
                        out_qsets.clear();
                        for (_, buf) in out_cols.iter_mut() {
                            buf.clear();
                        }
                        route_ns += t_route.elapsed().as_nanos() as u64;
                    }
                    if guard.charge(tile.len() as u64) {
                        return Walk::Stop;
                    }
                    if out_qsets.len() >= HANDOFF_ROWS {
                        return Walk::Yield;
                    }
                    Walk::Continue
                },
            );
            if from.is_none() {
                break;
            }
            // Whole tiles only: the rows past them stay for the resumed walk
            // to fill up, so the operators below get full chunks.
            let rows = main_out.len() / PROBE_TILE * PROBE_TILE;
            let out = &mut main_out;
            handoff_ns += hand_off(shared, p, out, rows, version, log, entry, sink, guard, scratch);
            handed_off = true;
            if guard.tripped {
                break;
            }
        }
    }
    // The rest of an output that was handed on goes the same way, so the
    // subtree logs one folded entry per node.
    if handed_off && !guard.tripped && !main_out.is_empty() {
        let rows = main_out.len();
        let out = &mut main_out;
        handoff_ns += hand_off(shared, p, out, rows, version, log, entry, sink, guard, scratch);
    }

    // Divergence branch: the same AND-select over the full vector.
    if let (Some(dv), Some(div_q)) = (&mut div_out, &p.div_queries) {
        let ProbeStaging { active_rows, carry_div, .. } = &mut scratch.stage;
        let (div_cols, div_qsets) = dv.parts_mut();
        pairs::and_select_rows(&vec.qsets, div_q.words(), div_qsets, active_rows);
        for ((_, buf), &src) in div_cols.iter_mut().zip(carry_div.iter()) {
            if let Some((_, col)) = cols.get(src) {
                pairs::gather_u32(col, active_rows, buf);
            }
        }
    }

    // "Pairs × carried columns", whether the pairs were kept or routed.
    shared
        .stats
        .materialized_cells
        .fetch_add(n_out * main_out.columns().len() as u64, Ordering::Relaxed);
    // The hand-offs' time is booked by the operators they ran.
    let probe_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(handoff_ns);
    shared.profile.add(Category::Probe, probe_ns.saturating_sub(route_ns));
    if route_ns > 0 {
        shared.profile.add(Category::Route, route_ns);
    }

    if let Some(rec) = shared.recorder {
        rec.record_probe_batch(vec.len() as u64);
        let (view_keys, chain_keys) = scratch.stage.probe.path_key_counts();
        rec.record_probe_keys(view_keys, chain_keys);
    }

    if let Some(e) = log.entry_mut(entry) {
        e.n_out = n_out;
        e.n_div = div_out.as_ref().map(|d| d.len() as u64);
    }

    (main_out, div_out)
}

/// Hands the first `rows` rows of an inner probe's output to the
/// operators below it (DESIGN.md §10): runs `p.main` over them on the next
/// level's staging — the probe's own holds its paused walk — with no STeM
/// latch held, folds the entries they log into those of the probe's
/// earlier hand-offs (the probe's own entry is `entry`), and drops them
/// from `out`. Returns the time spent, which those operators booked to
/// their own categories.
#[allow(clippy::too_many_arguments)]
fn hand_off(
    shared: &EngineShared<'_>,
    p: &ProbeNode,
    out: &mut DataVector,
    rows: usize,
    version: u32,
    log: &mut ExecutionLog,
    entry: usize,
    sink: &mut EpisodeSink,
    guard: &mut JoinGuard,
    scratch: &mut EpisodeScratch,
) -> u64 {
    let t0 = Instant::now();
    let parked = scratch.park_stage();
    if rows == out.len() {
        exec_join(shared, &p.main, out, version, log, sink, guard, scratch);
    } else {
        exec_chunks(shared, &p.main, out, rows, version, log, sink, guard, scratch);
    }
    scratch.unpark_stage(parked);
    log.merge_from(entry + 1);
    out.drain_front(rows);
    t0.elapsed().as_nanos() as u64
}
