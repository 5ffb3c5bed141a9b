//! The RouLette engine (§3).
//!
//! [`RouletteEngine`] is the public entry point: it executes batches of
//! SPJ queries over a catalog through episode-based adaptive processing.
//! [`Session`] exposes the engine's dynamic side — queries can be admitted
//! while processing is under way (online scheduling, §6.2's dynamic
//! workloads), sharing the circular scans and STeM state of ongoing
//! queries.

use crate::episode::{run_episode, EngineShared, FilterPair, SharedStats, TraceEntry};
use crate::fault::{FaultInjector, LiveSet};
use crate::filter::{group_queries, GroupedFilter, PlainFilter};
use crate::kernels::Kernels;
use crate::output::{Outputs, QueryResult};
use crate::profile::Profile;
use crate::pruning::rank_relations;
use crate::scratch::EpisodeScratch;
use crate::stem::Stem;
use parking_lot::Mutex;
use roulette_core::{
    ColId, CostModel, EngineConfig, Error, QueryId, QuerySet, RelId, RelSet, Result,
};
use roulette_policy::{ExecutionLog, GreedyPolicy, Policy, QLearningPolicy};
use roulette_query::{QueryBatch, SpjQuery};
use roulette_storage::{Catalog, IngestVector, Ingestion};
use roulette_telemetry::{EventKind, Recorder};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Vectors a worker prefetches from the shared ingestion state per refill
/// of its morsel queue. Batching amortizes the ingestion latch (one
/// acquisition per `MORSEL` episodes instead of one per episode) while
/// keeping queues shallow enough that work stealing has something to take
/// and completion information stays fresh.
const MORSEL: usize = 4;

/// Aggregate execution statistics of one batch/session.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// Episodes executed.
    pub episodes: u64,
    /// Intermediate join tuples (Σ probe outputs).
    pub join_tuples: u64,
    /// Tuples inserted into STeMs.
    pub inserted_tuples: u64,
    /// Tuples that went through the join phase without being inserted,
    /// because every relation their queries join with was already complete
    /// and nothing could ever probe them. Absent quarantines, selection
    /// survivors = `inserted_tuples + elided_tuples + pruned_tuples`.
    pub elided_tuples: u64,
    /// Tuples dropped by symmetric join pruning.
    pub pruned_tuples: u64,
    /// vID cells materialized by probe outputs.
    pub materialized_cells: u64,
    /// Nanoseconds in selection-phase filtering (incl. pruning).
    pub filter_ns: u64,
    /// Nanoseconds in STeM inserts.
    pub build_ns: u64,
    /// Nanoseconds in STeM probes.
    pub probe_ns: u64,
    /// Nanoseconds in output routing.
    pub route_ns: u64,
    /// Approximate resident STeM bytes (the in-memory state that bounds
    /// the processable dataset size, §3).
    pub stem_bytes: u64,
    /// Queries evicted from the shared plan (faults, panics, memory
    /// pressure).
    pub quarantined: u64,
    /// Episodes whose join phase was aborted and replanned with the greedy
    /// fallback by the watchdog.
    pub watchdog_trips: u64,
    /// Memory-pressure level under the budget ladder, as a raw value of
    /// [`PressureLevel`]: 0 = below 80% of the budget, 1 = pruning forced
    /// on (≥80%), 2 = admissions refused (≥90%), 3 = the last episode had
    /// to evict queries to fit the budget. Always 0 without a budget; use
    /// [`EngineStats::pressure_level`] for the typed view.
    pub memory_pressure: u8,
}

impl EngineStats {
    /// The typed memory-pressure ladder level (see [`PressureLevel`]).
    pub fn pressure_level(&self) -> PressureLevel {
        PressureLevel::from_raw(self.memory_pressure)
    }
}

/// The memory-budget degradation ladder's levels, in escalation order.
/// Levels 0–2 derive purely from STeM usage vs the budget
/// ([`pressure_from_usage`]); level 3 is set by an episode that had to
/// evict queries so its insert would fit, and persists until the next
/// episode re-derives the level from usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Usage below 80% of the budget: no intervention.
    Nominal,
    /// Usage ≥ 80%: symmetric join pruning is forced on.
    ForcedPruning,
    /// Usage ≥ 90%: new admissions are refused.
    AdmissionsPaused,
    /// The projected insert overshot the budget: heaviest queries evicted.
    Evicting,
}

impl PressureLevel {
    /// Decodes the raw `u8` stored in [`EngineStats::memory_pressure`];
    /// out-of-range values clamp to [`PressureLevel::Evicting`].
    pub fn from_raw(v: u8) -> PressureLevel {
        match v {
            0 => PressureLevel::Nominal,
            1 => PressureLevel::ForcedPruning,
            2 => PressureLevel::AdmissionsPaused,
            _ => PressureLevel::Evicting,
        }
    }
}

/// The usage-derived rungs of the degradation ladder: 0 below 80% of
/// `budget`, 1 at ≥80% (pruning forced on), 2 at ≥90% (admissions paused).
/// Eviction (level 3) is not usage-derived — an episode reports it when it
/// must evict to fit — so this never returns it. Both the admission check
/// and the episode governor derive their level from this single function.
pub fn pressure_from_usage(used: usize, budget: usize) -> u8 {
    if used * 10 >= budget * 9 {
        2
    } else if used * 5 >= budget * 4 {
        1
    } else {
        0
    }
}

/// The result of executing a batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-query results, in admission order.
    pub per_query: Vec<QueryResult>,
    /// Engine statistics.
    pub stats: EngineStats,
    /// Fig. 16 trace points (empty unless tracing was enabled).
    pub trace: Vec<TraceEntry>,
}

/// The multi-query execution engine.
pub struct RouletteEngine<'a> {
    catalog: &'a Catalog,
    config: EngineConfig,
    recorder: Option<Arc<dyn Recorder>>,
}

impl<'a> RouletteEngine<'a> {
    /// Creates an engine over `catalog`.
    pub fn new(catalog: &'a Catalog, config: EngineConfig) -> Self {
        RouletteEngine { catalog, config, recorder: None }
    }

    /// Attaches a telemetry recorder; sessions opened afterwards report
    /// into it. With no recorder, instrumentation costs one branch per
    /// site.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Executes `queries` as one batch with the default learned policy and
    /// returns per-query results.
    pub fn execute_batch(&self, queries: &[SpjQuery]) -> Result<BatchOutcome> {
        let policy = Box::new(QLearningPolicy::new(CostModel::default(), &self.config));
        self.execute_batch_with_policy(queries, policy)
    }

    /// Executes `queries` as one batch under a caller-supplied policy.
    pub fn execute_batch_with_policy(
        &self,
        queries: &[SpjQuery],
        policy: Box<dyn Policy>,
    ) -> Result<BatchOutcome> {
        let mut session = self.session_with_policy(queries.len().max(1), policy);
        for q in queries {
            session.admit(q.clone())?;
        }
        session.run();
        Ok(session.finish())
    }

    /// Opens a dynamic session that can admit up to `capacity` queries.
    pub fn session(&self, capacity: usize) -> Session<'a> {
        let policy = Box::new(QLearningPolicy::new(CostModel::default(), &self.config));
        self.session_with_policy(capacity, policy)
    }

    /// Opens a dynamic session with a caller-supplied policy.
    pub fn session_with_policy(&self, capacity: usize, policy: Box<dyn Policy>) -> Session<'a> {
        let capacity = capacity.max(1);
        Session {
            catalog: self.catalog,
            config: self.config.clone(),
            batch: QueryBatch::new(self.catalog.len(), capacity),
            ingestion: Mutex::new(Ingestion::new(
                &self
                    .catalog
                    .relations()
                    .map(|(_, r)| r.rows())
                    .collect::<Vec<_>>(),
                self.config.vector_size,
                capacity,
            )),
            stems: (0..self.catalog.len()).map(|_| None).collect(),
            work: (0..self.config.workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            scan_done: (0..self.catalog.len()).map(|_| AtomicBool::new(false)).collect(),
            scan_epoch: AtomicU64::new(0),
            filters: Vec::new(),
            filter_pred_counts: Vec::new(),
            sel_owners: Vec::new(),
            full_set: QuerySet::full(capacity),
            proj_rels: Vec::new(),
            projections: Vec::new(),
            outputs: Outputs::new(capacity, false),
            profile: Profile::new(),
            stats: SharedStats::default(),
            global_version: AtomicU32::new(1),
            policy: Mutex::new(policy),
            cost: CostModel::default(),
            pending_episodes: (0..self.catalog.len()).map(|_| AtomicU64::new(0)).collect(),
            trace: false,
            traces: Mutex::new(Vec::new()),
            live: LiveSet::new(capacity),
            fallback: Mutex::new(GreedyPolicy::with_defaults(self.config.seed)),
            injector: None,
            pressure: AtomicU8::new(0),
            closed: false,
            recorder: self.recorder.clone(),
            telemetry_done: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            scratch: Mutex::new(EpisodeScratch::new()),
        }
    }
}

/// A running engine instance with dynamic query admission.
pub struct Session<'a> {
    catalog: &'a Catalog,
    config: EngineConfig,
    batch: QueryBatch,
    ingestion: Mutex<Ingestion>,
    stems: Vec<Option<Stem>>,
    /// Per-worker morsel queues. A worker pops its own queue from the
    /// front (preserving ingestion order), refills it with up to [`MORSEL`]
    /// vectors under one ingestion latch when empty, and steals from the
    /// back of a sibling's queue when ingestion is drained — so a straggler
    /// stuck in a long episode no longer idles the pool behind it.
    /// Lock class `Session.work`, ordered after `Session.ingestion` (a
    /// refill pushes under both); never nested with another worker's queue.
    work: Vec<Mutex<VecDeque<IngestVector>>>,
    /// Lock-free mirror of `Ingestion::scan_complete`, synced under the
    /// ingestion latch wherever the schedule changes (refill, admission,
    /// quarantine). Lets [`complete_now`](Self::complete_now) derive the
    /// completeness set per episode without touching the ingestion latch.
    scan_done: Vec<AtomicBool>,
    /// Seqlock epoch over `scan_done`: odd while an admission is mutating
    /// the scan schedule. Readers retry when the epoch is odd or moved, so
    /// they never observe a half-applied admission. Quarantine's
    /// `unschedule` needs no bump: it can only retire readers, and a flag
    /// flipping false→true remains truthful at any read point (no reader
    /// of that scan remains, so no insert carrying an executing vector's
    /// query bits can still arrive).
    scan_epoch: AtomicU64,
    filters: Vec<FilterPair>,
    filter_pred_counts: Vec<usize>,
    sel_owners: Vec<QuerySet>,
    full_set: QuerySet,
    proj_rels: Vec<RelSet>,
    projections: Vec<Vec<(RelId, ColId)>>,
    outputs: Outputs,
    profile: Profile,
    stats: SharedStats,
    global_version: AtomicU32,
    policy: Mutex<Box<dyn Policy>>,
    cost: CostModel,
    /// Per-relation count of handed-out but not-yet-finished episodes.
    /// Pruning and build elision may only treat a relation's STeM as final
    /// when its scan is complete AND no episode is still inserting into it
    /// (a racing worker could otherwise publish matches after a semi-join
    /// already pruned, or after an elided vector already probed).
    pending_episodes: Vec<AtomicU64>,
    trace: bool,
    traces: Mutex<Vec<TraceEntry>>,
    /// Non-quarantined queries; bits set at admission, cleared at eviction.
    live: LiveSet,
    /// Greedy fallback policy the episode watchdog replans with.
    fallback: Mutex<GreedyPolicy>,
    /// Deterministic fault injector (testing only).
    injector: Option<FaultInjector>,
    /// Memory-pressure level under the budget ladder (see `EngineStats`).
    pressure: AtomicU8,
    /// Whether the session refuses further admissions.
    closed: bool,
    /// Telemetry sink; `None` keeps every instrumentation site a single
    /// branch.
    recorder: Option<Arc<dyn Recorder>>,
    /// Per-query "terminal event emitted" flags, so each query produces at
    /// most one completion/quarantine marker in the telemetry stream.
    telemetry_done: Vec<AtomicBool>,
    /// The [`step`](Self::step)-driven execution path's episode arena.
    /// Worker threads each own a local arena instead; this one exists so
    /// single-stepping reuses buffers across calls too.
    scratch: Mutex<EpisodeScratch>,
}

impl<'a> Session<'a> {
    /// Enables collecting projected output rows (tests / small workloads).
    /// Must be called before any output is produced.
    pub fn collect_rows(&mut self) -> Result<()> {
        if self.stats.episodes.load(Ordering::Relaxed) != 0 {
            return Err(Error::InvalidQuery(
                "collect_rows must be enabled before execution starts".into(),
            ));
        }
        self.outputs = Outputs::new(self.batch.capacity(), true);
        Ok(())
    }

    /// Installs a deterministic fault injector (testing). Faults fire
    /// during subsequent episodes; see [`FaultInjector`].
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Attaches a telemetry recorder to this session (overrides whatever
    /// the engine was configured with).
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// The installed fault injector, if any (lets tests assert all
    /// configured faults fired).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Closes the session to further admissions; already-admitted queries
    /// run to completion. [`admit`](Self::admit) afterwards is an error.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Evicts `q` from the shared plan: future vectors stop carrying its
    /// bit, its circular scans are descheduled, staged outputs stop being
    /// committed for it, and its result is marked
    /// [`Quarantined`](crate::output::CompletionStatus::Quarantined) with
    /// the attributed error. Idempotent — the first eviction wins; every
    /// other admitted query's results are unchanged (history independence).
    pub fn quarantine(&self, q: QueryId, err: Error) {
        if !self.live.deactivate(q) {
            return;
        }
        if let Some(rec) = &self.recorder {
            // The eviction is this query's terminal telemetry event; mark
            // it done so scan retirement never also reports a completion.
            let first = self
                .telemetry_done
                .get(q.index())
                // ordering: dedup flag only — at most one eviction event per
                // query; no data is published under this flag.
                .is_some_and(|f| !f.swap(true, Ordering::Relaxed));
            if first {
                // Deadline evictions are a latency-policy decision, not a
                // fault; emit the dedicated event so overload dashboards
                // can tell the two apart.
                let kind = if matches!(err, Error::DeadlineExceeded { .. }) {
                    EventKind::DeadlineExceeded { query: q.0, reason: err.to_string() }
                } else {
                    EventKind::Quarantine { query: q.0, reason: err.to_string() }
                };
                rec.record_event(self.stats.episodes.load(Ordering::Relaxed), kind);
            }
        }
        self.outputs.quarantine(q, err);
        {
            let mut ing = self.ingestion.lock();
            ing.unschedule(q);
            // Descheduling the query may have retired a scan's last
            // remaining reader; republish the completion flags.
            self.sync_scan_flags(&ing);
        }
        self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// The error a quarantined query was evicted with (None for healthy
    /// queries).
    pub fn query_error(&self, q: QueryId) -> Option<Error> {
        self.outputs.error(q)
    }

    /// Enables Fig. 16 cost tracing.
    pub fn enable_trace(&mut self) {
        self.trace = true;
    }

    /// Overrides the cost model used for learning rewards and traces.
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// Admits a query: schedules its circular scans, extends the global
    /// join/predicate structures, and (re)builds the affected filters and
    /// STeM indices. Processing may already be under way.
    pub fn admit(&mut self, q: SpjQuery) -> Result<QueryId> {
        if self.closed {
            return Err(Error::Capacity("session is closed to new admissions".into()));
        }
        if let Some(budget) = self.config.memory_budget_bytes {
            // Second rung of the degradation ladder: at ≥90% of the budget
            // the session stops taking on new work rather than letting a
            // new query push resident queries into eviction.
            let used: usize = self.stems.iter().flatten().map(|s| s.memory_bytes()).sum();
            if pressure_from_usage(used, budget) >= 2 {
                return Err(Error::ResourceExhausted(format!(
                    "STeM memory {used} of budget {budget} bytes; admissions paused"
                )));
            }
        }
        q.validate(self.catalog)?;
        let id = self.batch.add(q)?;
        self.live.activate(id);
        if let Some(rec) = &self.recorder {
            rec.record_event(
                self.stats.episodes.load(Ordering::Relaxed),
                EventKind::Admission { query: id.0 },
            );
        }
        let query = self.batch.query(id).clone();

        // STeMs + indices for the query's relations and join keys.
        for rel in query.relations.iter() {
            let mut key_cols: Vec<ColId> = Vec::new();
            for &eid in self.batch.edges_of(rel) {
                let edge = self.batch.edge(eid);
                let (this_side, _) = edge.oriented_from(rel).expect("edge is incident");
                if !key_cols.contains(&this_side.1) {
                    key_cols.push(this_side.1);
                }
            }
            let wps = self.full_set.width();
            // The relation's cardinality bounds its STeM population, so the
            // hash indices are sized for it up front instead of growing
            // through O(log n) rehashes during ingestion. Under a memory
            // budget the hint is capped so admission-time footprint stays a
            // sliver of the budget; the tables then grow by doubling under
            // the governor's watch, exactly as before pre-sizing existed.
            let rows = self.catalog.relation(rel).rows();
            let hint = match self.config.memory_budget_bytes {
                Some(budget) => rows.min(budget / 256),
                None => rows,
            };
            match &mut self.stems[rel.index()] {
                slot @ None => {
                    *slot = Some(Stem::with_shards(
                        rel,
                        key_cols,
                        wps,
                        hint,
                        self.config.stem_shards,
                    ))
                }
                Some(stem) => {
                    for col in key_cols {
                        stem.ensure_index(col, self.catalog.relation(rel).column(col));
                    }
                }
            }
        }

        // (Re)build filters for new or extended selection groups.
        let capacity = self.batch.capacity();
        for (gid, group) in self.batch.selection_groups().iter().enumerate() {
            let fresh = gid >= self.filters.len();
            if fresh || self.filter_pred_counts[gid] != group.preds.len() {
                let pair = FilterPair {
                    grouped: GroupedFilter::build(&group.preds, capacity),
                    plain: PlainFilter::new(&group.preds, capacity),
                };
                let owners = group_queries(&group.preds, capacity);
                if fresh {
                    self.filters.push(pair);
                    self.filter_pred_counts.push(group.preds.len());
                    self.sel_owners.push(owners);
                } else {
                    self.filters[gid] = pair;
                    self.filter_pred_counts[gid] = group.preds.len();
                    self.sel_owners[gid] = owners;
                }
            }
        }

        // Projection metadata.
        let mut prels = RelSet::EMPTY;
        for &(rel, _) in &query.projections {
            prels.insert(rel);
        }
        self.proj_rels.push(prels);
        self.projections.push(query.projections.clone());

        // Schedule scans; refresh the pruning-driven initiation ranks.
        {
            let mut ing = self.ingestion.lock();
            // ordering: SeqCst seqlock write — the odd epoch marks the
            // schedule mutation in flight so complete_now's readers retry
            // instead of observing a half-applied admission.
            self.scan_epoch.fetch_add(1, Ordering::SeqCst);
            ing.schedule(id, query.relations);
            if self.config.pruning {
                ing.set_ranks(&rank_relations(&self.batch, self.catalog));
            }
            self.sync_scan_flags(&ing);
            // ordering: SeqCst seqlock write — even epoch republishes the
            // flags; pairs with the epoch re-check in complete_now.
            self.scan_epoch.fetch_add(1, Ordering::SeqCst);
        }
        Ok(id)
    }

    fn shared_view<'s>(
        &'s self,
        quarantine: &'s (dyn Fn(QueryId, Error) + Sync),
    ) -> EngineShared<'s> {
        EngineShared {
            catalog: self.catalog,
            config: &self.config,
            batch: &self.batch,
            stems: &self.stems,
            filters: &self.filters,
            sel_owners: &self.sel_owners,
            full_set: &self.full_set,
            proj_rels: &self.proj_rels,
            projections: &self.projections,
            outputs: &self.outputs,
            profile: &self.profile,
            stats: &self.stats,
            global_version: &self.global_version,
            cost: &self.cost,
            live: &self.live,
            injector: self.injector.as_ref(),
            fallback: &self.fallback,
            quarantine,
            pressure: &self.pressure,
            recorder: self.recorder.as_deref(),
            kernels: Kernels::from_config(&self.config),
        }
    }

    /// Emits a completion event for every live query whose input has been
    /// fully consumed and that has not had a terminal event yet. Free with
    /// no recorder; otherwise a cheap scan over the admitted queries,
    /// called under the ingestion latch so activity and the done flags
    /// order consistently.
    fn flush_completions(&self, ing: &Ingestion) {
        let Some(rec) = &self.recorder else { return };
        let episode = self.stats.episodes.load(Ordering::Relaxed);
        for i in 0..self.batch.n_queries() {
            let q = QueryId(i as u32);
            if ing.query_active(q) || !self.live.contains(q) {
                continue;
            }
            let first = self
                .telemetry_done
                .get(i)
                // ordering: dedup flag only — at most one completion event
                // per query; no data is published under this flag.
                .is_some_and(|f| !f.swap(true, Ordering::Relaxed));
            if first {
                rec.record_event(episode, EventKind::Completion { query: q.0 });
            }
        }
    }

    /// Mirrors `Ingestion::scan_complete` into the lock-free `scan_done`
    /// flags. Must be called under the ingestion latch so the flags never
    /// run ahead of the schedule they summarize.
    fn sync_scan_flags(&self, ing: &Ingestion) {
        for (i, flag) in self.scan_done.iter().enumerate() {
            // ordering: SeqCst — complete_now reads the flag before the
            // pending counter; the seqlock's correctness argument needs
            // those reads to happen in that order across threads.
            flag.store(ing.scan_complete(RelId(i as u16)), Ordering::SeqCst);
        }
    }

    /// Hands `worker` its next episode vector: own queue first (front —
    /// ingestion order), then a [`MORSEL`]-sized refill from the shared
    /// ingestion state, then a steal from the back of a sibling's queue.
    /// `None` means ingestion is drained and every queue was observed
    /// empty — the run is out of work for this worker.
    fn next_task(&self, worker: usize) -> Option<IngestVector> {
        let own = self.work.get(worker)?;
        if let Some(iv) = own.lock().pop_front() {
            return Some(iv);
        }
        // Refill: batch up to MORSEL hand-outs under one ingestion latch.
        // The pending counters are bumped at grab time, under the latch,
        // so they order consistently with scan completion; completeness is
        // derived per episode by complete_now, not here.
        {
            let mut ing = self.ingestion.lock();
            let mut q = own.lock();
            while q.len() < MORSEL {
                let Some(iv) = ing.next() else { break };
                if let Some(pending) = self.pending_episodes.get(iv.rel.index()) {
                    // ordering: Release pairs with complete_now's load — a
                    // reader that sees pending == 0 also sees every hand-out.
                    pending.fetch_add(1, Ordering::Release);
                }
                q.push_back(iv);
            }
            drop(q);
            self.flush_completions(&ing);
            self.sync_scan_flags(&ing);
        }
        if let Some(iv) = own.lock().pop_front() {
            return Some(iv);
        }
        // Steal: ingestion is drained; take the newest vector off the back
        // of a sibling's queue so stragglers don't idle the pool. One
        // victim latch at a time, never nested with our own.
        let n = self.work.len();
        for off in 1..n {
            let victim = (worker + off) % n;
            let stolen = self.work.get(victim).and_then(|q| q.lock().pop_back());
            if let Some(iv) = stolen {
                if let Some(rec) = &self.recorder {
                    rec.record_steal(1);
                }
                return Some(iv);
            }
        }
        None
    }

    /// Derives the completeness set — relations whose scan is done AND
    /// whose handed-out episodes have all finished — fresh at episode
    /// start, without the ingestion latch. Pruning and build elision may
    /// treat such a STeM as final: no insert carrying any
    /// currently-executing vector's query bits can still arrive (later
    /// admissions introduce only new bits, and scan the relation again for
    /// them).
    ///
    /// Freshness matters under morsel batching: a vector's grab-time
    /// snapshot would still count its queue-mates as pending and miss
    /// pruning opportunities the single-vector loop used to see.
    fn complete_now(&self) -> RelSet {
        loop {
            // ordering: SeqCst seqlock read — pairs with admit's epoch
            // bumps; an odd epoch means a schedule mutation is in flight.
            let e1 = self.scan_epoch.load(Ordering::SeqCst);
            if e1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut complete = RelSet::EMPTY;
            let flags = self.scan_done.iter().zip(self.pending_episodes.iter());
            for (i, (done, pending)) in flags.enumerate() {
                // ordering: SeqCst — the done flag must be observed before
                // the pending counter: done(t1) ∧ pending==0(t2>t1) proves
                // every insert for the scanned-out relation has finished
                // and is visible (pending's Release sub pairs with this
                // load).
                if done.load(Ordering::SeqCst) && pending.load(Ordering::SeqCst) == 0 {
                    complete.insert(RelId(i as u16));
                }
            }
            // ordering: SeqCst seqlock re-check — an epoch moved by an
            // admission invalidates the scan; retry.
            let e2 = self.scan_epoch.load(Ordering::SeqCst);
            if e1 == e2 {
                return complete;
            }
        }
    }

    fn finish_episode(&self, rel: RelId) {
        // ordering: Release publishes the episode's STeM/output writes to
        // the load in complete_now's completeness check.
        self.pending_episodes[rel.index()].fetch_sub(1, Ordering::Release);
    }

    /// Runs one episode inside the panic-isolation boundary. A panic
    /// anywhere in the episode (a defect, or an injected panic fault) is
    /// contained here: the episode's staged outputs died with its sink
    /// (nothing partial was committed), and every live query the vector
    /// carried is quarantined with an internal error. Other queries — and
    /// other episodes — proceed normally.
    fn run_episode_guarded(
        &self,
        shared: &EngineShared<'_>,
        iv: &IngestVector,
        complete: RelSet,
        log: &mut ExecutionLog,
        scratch: &mut EpisodeScratch,
    ) -> Option<TraceEntry> {
        // The allocator-pressure ablation / differential-testing reference:
        // with reuse off, every episode runs on a fresh arena, reproducing
        // the seed's allocate-per-episode behaviour exactly.
        let mut fresh;
        let scratch = if self.config.scratch_reuse {
            scratch
        } else {
            fresh = EpisodeScratch::new();
            &mut fresh
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_episode(shared, iv, complete, &self.policy, log, scratch, self.trace)
        }));
        match outcome {
            Ok(trace) => trace,
            Err(payload) => {
                // Pooled buffers may have been mid-mutation when the panic
                // unwound; drop them rather than reuse suspect state.
                scratch.reset();
                let msg = panic_message(payload.as_ref());
                for q in iv.queries.intersection(&self.live.snapshot()).iter() {
                    self.quarantine(q, Error::Internal(format!("episode panicked: {msg}")));
                }
                None
            }
        }
    }

    fn worker_loop(&self, worker: usize) {
        let mut log = ExecutionLog::new();
        let mut scratch = EpisodeScratch::new();
        let quarantine = |q: QueryId, e: Error| self.quarantine(q, e);
        let shared = self.shared_view(&quarantine);
        while let Some(iv) = self.next_task(worker) {
            let complete = self.complete_now();
            let trace =
                self.run_episode_guarded(&shared, &iv, complete, &mut log, &mut scratch);
            self.finish_episode(iv.rel);
            if let Some(t) = trace {
                self.traces.lock().push(t);
            }
        }
    }

    /// Executes one episode; returns `false` when no input is pending.
    pub fn step(&mut self) -> bool {
        let Some(iv) = self.next_task(0) else { return false };
        let complete = self.complete_now();
        let mut log = ExecutionLog::new();
        let quarantine = |q: QueryId, e: Error| self.quarantine(q, e);
        let shared = self.shared_view(&quarantine);
        let mut scratch = self.scratch.lock();
        let trace = self.run_episode_guarded(&shared, &iv, complete, &mut log, &mut scratch);
        self.finish_episode(iv.rel);
        if let Some(t) = trace {
            self.traces.lock().push(t);
        }
        true
    }

    /// Runs episodes until all admitted queries' input is consumed, using
    /// `config.workers` worker threads.
    pub fn run(&mut self) {
        self.run_workers();
    }

    /// Shared-reference form of [`run`](Self::run), for callers that need
    /// to act on the session concurrently while it executes — e.g. a
    /// serving frontend's deadline sweeper calling
    /// [`quarantine`](Self::quarantine) from another thread.
    pub fn run_workers(&self) {
        if self.config.workers <= 1 {
            self.worker_loop(0);
            return;
        }
        let workers = self.config.workers.min(self.work.len());
        std::thread::scope(|scope| {
            for w in 0..workers {
                scope.spawn(move || self.worker_loop(w));
            }
        });
    }

    /// Runs `f` with exclusive access to the session's policy (e.g. to
    /// decode the learned plan after a run, §6.2's Stitch&Share–Sim).
    pub fn with_policy<R>(&self, f: impl FnOnce(&mut dyn Policy) -> R) -> R {
        let mut p = self.policy.lock();
        f(&mut **p)
    }

    /// The session's merged batch structures (edges, query-sets).
    pub fn batch(&self) -> &QueryBatch {
        &self.batch
    }

    /// Swaps the session's policy, returning the previous one (e.g. to
    /// carry a learned policy across sessions for warm-start studies).
    pub fn replace_policy(&mut self, policy: Box<dyn Policy>) -> Box<dyn Policy> {
        std::mem::replace(&mut *self.policy.lock(), policy)
    }

    /// Fraction of query `q`'s input already ingested (Fig. 14's admission
    /// pacing signal).
    pub fn progress(&self, q: QueryId) -> f64 {
        self.ingestion.lock().progress(q)
    }

    /// Whether query `q` still has unread input.
    pub fn query_active(&self, q: QueryId) -> bool {
        self.ingestion.lock().query_active(q)
    }

    /// Number of admitted queries.
    pub fn n_queries(&self) -> usize {
        self.batch.n_queries()
    }

    /// The query's terminal status, or `None` while it is still live with
    /// unread input. Serving frontends use this after a drain to assert no
    /// query leaked without reaching a terminal
    /// [`CompletionStatus`](crate::output::CompletionStatus).
    pub fn terminal_status(&self, q: QueryId) -> Option<crate::output::CompletionStatus> {
        let status = self.outputs.result(q).status;
        if status == crate::output::CompletionStatus::Quarantined {
            return Some(status);
        }
        if self.live.contains(q) && self.query_active(q) {
            return None;
        }
        Some(status)
    }

    /// Snapshot of one query's accumulated result.
    pub fn result(&self, q: QueryId) -> QueryResult {
        self.outputs.result(q)
    }

    /// Takes the collected rows of `q` (only when [`Self::collect_rows`]
    /// was enabled).
    pub fn take_collected(&self, q: QueryId) -> Vec<Vec<i64>> {
        self.outputs.take_collected(q)
    }

    /// Entries currently stored in `rel`'s STeM (0 for a relation no
    /// admitted query scans). With pruning on, the relation ranked last
    /// stays at 0 in a single-worker batch: all of its builds are elided.
    /// A test hook, not part of the session API.
    #[doc(hidden)]
    pub fn stem_len(&self, rel: RelId) -> usize {
        self.stems.get(rel.index()).and_then(Option::as_ref).map_or(0, Stem::len)
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        let (filter_ns, build_ns, probe_ns, route_ns) = self.profile.breakdown();
        EngineStats {
            episodes: self.stats.episodes.load(Ordering::Relaxed),
            join_tuples: self.stats.join_tuples.load(Ordering::Relaxed),
            inserted_tuples: self.stats.inserted_tuples.load(Ordering::Relaxed),
            elided_tuples: self.stats.elided_tuples.load(Ordering::Relaxed),
            pruned_tuples: self.stats.pruned_tuples.load(Ordering::Relaxed),
            materialized_cells: self.stats.materialized_cells.load(Ordering::Relaxed),
            filter_ns,
            build_ns,
            probe_ns,
            route_ns,
            stem_bytes: self
                .stems
                .iter()
                .flatten()
                .map(|s| s.memory_bytes() as u64)
                .sum(),
            quarantined: self.stats.quarantined.load(Ordering::Relaxed),
            watchdog_trips: self.stats.watchdog_trips.load(Ordering::Relaxed),
            // ordering: monitoring snapshot; a stale ladder level is fine.
            memory_pressure: self.pressure.load(Ordering::Relaxed),
        }
    }

    /// Finalizes the session into a [`BatchOutcome`].
    pub fn finish(self) -> BatchOutcome {
        // Catch completions that landed after the last worker drained
        // `next_work` (e.g. step()-driven sessions).
        self.flush_completions(&self.ingestion.lock());
        let stats = self.stats();
        BatchOutcome {
            per_query: self.outputs.results(self.batch.n_queries()),
            stats,
            trace: self.traces.into_inner(),
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roulette_storage::RelationBuilder;

    /// fact(fk → dim.pk, v) with controllable matches.
    fn tiny_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut f = RelationBuilder::new("fact");
        f.int64("fk", vec![0, 1, 2, 0, 1, 9, 9, 2]);
        f.int64("v", vec![0, 1, 2, 3, 4, 5, 6, 7]);
        c.add(f.build()).unwrap();
        let mut d = RelationBuilder::new("dim");
        d.int64("pk", vec![0, 1, 2, 3]);
        d.int64("w", vec![10, 11, 12, 13]);
        c.add(d.build()).unwrap();
        c
    }

    fn join_query(c: &Catalog) -> SpjQuery {
        SpjQuery::builder(c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .build()
            .unwrap()
    }

    #[test]
    fn single_join_counts_match_ground_truth() {
        let c = tiny_catalog();
        let engine = RouletteEngine::new(&c, EngineConfig::default().with_vector_size(3).unwrap());
        let out = engine.execute_batch(&[join_query(&c)]).unwrap();
        // fk values 0,1,2,0,1,2 match (6 rows); the two 9s don't.
        assert_eq!(out.per_query[0].rows, 6);
        assert!(out.stats.episodes > 0);
        assert!(out.stats.inserted_tuples > 0);
    }

    #[test]
    fn selection_filters_before_join() {
        let c = tiny_catalog();
        let q = SpjQuery::builder(&c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .range("fact", "v", 0, 2)
            .build()
            .unwrap();
        let engine = RouletteEngine::new(&c, EngineConfig::default().with_vector_size(4).unwrap());
        let out = engine.execute_batch(&[q]).unwrap();
        // Rows v ∈ {0,1,2}: fks 0,1,2 all match → 3.
        assert_eq!(out.per_query[0].rows, 3);
    }

    #[test]
    fn shared_batch_gets_per_query_results() {
        let c = tiny_catalog();
        let q_all = join_query(&c);
        let q_sel = SpjQuery::builder(&c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .range("dim", "w", 10, 10)
            .build()
            .unwrap();
        let engine = RouletteEngine::new(&c, EngineConfig::default().with_vector_size(3).unwrap());
        let out = engine.execute_batch(&[q_all, q_sel]).unwrap();
        assert_eq!(out.per_query[0].rows, 6);
        // dim.w == 10 → pk 0 → fact rows with fk 0: two.
        assert_eq!(out.per_query[1].rows, 2);
    }

    #[test]
    fn projections_are_routed() {
        let c = tiny_catalog();
        let q = SpjQuery::builder(&c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .range("fact", "v", 7, 7)
            .project("dim", "w")
            .project("fact", "v")
            .build()
            .unwrap();
        let engine = RouletteEngine::new(&c, EngineConfig::default());
        let mut session = engine.session(1);
        session.collect_rows().unwrap();
        session.admit(q).unwrap();
        session.run();
        let rows = session.take_collected(QueryId(0));
        assert_eq!(rows, vec![vec![12, 7]]);
    }

    #[test]
    fn plain_configuration_matches_optimized_results() {
        let c = tiny_catalog();
        let q = join_query(&c);
        let optimized = RouletteEngine::new(&c, EngineConfig::default().with_vector_size(3).unwrap())
            .execute_batch(std::slice::from_ref(&q))
            .unwrap();
        let plain = RouletteEngine::new(&c, EngineConfig::default().plain().with_vector_size(3).unwrap())
            .execute_batch(&[q])
            .unwrap();
        assert_eq!(optimized.per_query[0], plain.per_query[0]);
    }

    #[test]
    fn dynamic_admission_mid_run_completes_both_queries() {
        let c = tiny_catalog();
        let engine = RouletteEngine::new(&c, EngineConfig::default().with_vector_size(2).unwrap());
        let mut session = engine.session(2);
        let q0 = session.admit(join_query(&c)).unwrap();
        // Process a couple of episodes, then admit a second instance.
        assert!(session.step());
        assert!(session.step());
        let q1 = session.admit(join_query(&c)).unwrap();
        session.run();
        assert!(!session.query_active(q0));
        assert!(!session.query_active(q1));
        let out = session.finish();
        assert_eq!(out.per_query[0].rows, 6);
        assert_eq!(out.per_query[1].rows, 6);
        assert_eq!(out.per_query[0].checksum, out.per_query[1].checksum);
    }

    #[test]
    fn multi_worker_run_matches_single_worker() {
        let c = tiny_catalog();
        let q = join_query(&c);
        let single = RouletteEngine::new(&c, EngineConfig::default().with_vector_size(2).unwrap())
            .execute_batch(&[q.clone(), q.clone()])
            .unwrap();
        let multi = RouletteEngine::new(
            &c,
            EngineConfig::default().with_vector_size(2).unwrap().with_workers(4).unwrap(),
        )
        .execute_batch(&[q.clone(), q])
        .unwrap();
        assert_eq!(single.per_query, multi.per_query);
    }

    #[test]
    fn trace_collects_episode_costs() {
        let c = tiny_catalog();
        let engine = RouletteEngine::new(&c, EngineConfig::default().with_vector_size(2).unwrap());
        let mut session = engine.session(1);
        session.enable_trace();
        session.admit(join_query(&c)).unwrap();
        session.run();
        let out = session.finish();
        assert!(!out.trace.is_empty());
        assert!(out.trace.iter().any(|t| t.measured > 0.0));
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let c = tiny_catalog();
        let engine = RouletteEngine::new(&c, EngineConfig::default());
        let out = engine.execute_batch(&[]).unwrap();
        assert!(out.per_query.is_empty());
        assert_eq!(out.stats.episodes, 0);
    }

    #[test]
    fn query_over_empty_relation_returns_zero_rows() {
        let mut c = Catalog::new();
        let mut f = RelationBuilder::new("fact");
        f.int64("fk", vec![]);
        c.add(f.build()).unwrap();
        let mut d = RelationBuilder::new("dim");
        d.int64("pk", vec![0, 1]);
        c.add(d.build()).unwrap();
        let q = SpjQuery::builder(&c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .build()
            .unwrap();
        let out = RouletteEngine::new(&c, EngineConfig::default())
            .execute_batch(&[q])
            .unwrap();
        assert_eq!(out.per_query[0].rows, 0);
    }

    #[test]
    fn predicate_matching_nothing_yields_empty_result() {
        let c = tiny_catalog();
        let q = SpjQuery::builder(&c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .range("fact", "v", 1000, 2000)
            .build()
            .unwrap();
        let out = RouletteEngine::new(&c, EngineConfig::default())
            .execute_batch(&[q])
            .unwrap();
        assert_eq!(out.per_query[0].rows, 0);
        assert_eq!(out.per_query[0].checksum, 0);
    }

    #[test]
    fn session_capacity_rejects_excess_admissions() {
        let c = tiny_catalog();
        let engine = RouletteEngine::new(&c, EngineConfig::default());
        let mut session = engine.session(1);
        session.admit(join_query(&c)).unwrap();
        assert!(session.admit(join_query(&c)).is_err());
    }

    #[test]
    fn stats_report_stem_footprint() {
        let c = tiny_catalog();
        let out = RouletteEngine::new(&c, EngineConfig::default())
            .execute_batch(&[join_query(&c)])
            .unwrap();
        assert!(out.stats.stem_bytes > 0);
    }

    #[test]
    fn single_relation_scan_only_query() {
        let c = tiny_catalog();
        let q = SpjQuery::builder(&c)
            .relation("fact")
            .range("fact", "v", 2, 5)
            .build()
            .unwrap();
        let out = RouletteEngine::new(&c, EngineConfig::default().with_vector_size(3).unwrap())
            .execute_batch(&[q])
            .unwrap();
        assert_eq!(out.per_query[0].rows, 4);
        assert_eq!(out.stats.join_tuples, 0);
    }

    #[test]
    fn tuple_counters_conserved_across_worker_counts() {
        // With pruning disabled, the tuple-flow counters are deterministic:
        // every selected tuple is inserted exactly once, and the symmetric
        // join produces each match exactly once regardless of episode
        // interleaving. The counters must therefore agree between a
        // 1-worker and a 4-worker run of the same seeded batch. (Pruned
        // counts are inherently timing-dependent — a slow scan prunes less
        // — so this invariant is only claimed with pruning off.)
        let c = tiny_catalog();
        let q = join_query(&c);
        let sel = SpjQuery::builder(&c)
            .relation("fact")
            .relation("dim")
            .join(("fact", "fk"), ("dim", "pk"))
            .range("fact", "v", 0, 4)
            .build()
            .unwrap();
        let run = |workers: usize| {
            let mut cfg = EngineConfig::default()
                .with_vector_size(2)
                .unwrap()
                .with_workers(workers)
                .unwrap()
                .with_seed(99);
            cfg.pruning = false;
            RouletteEngine::new(&c, cfg)
                .execute_batch(&[q.clone(), sel.clone()])
                .unwrap()
        };
        let single = run(1);
        let multi = run(4);
        assert_eq!(single.per_query, multi.per_query);
        assert_eq!(single.stats.inserted_tuples, multi.stats.inserted_tuples);
        assert_eq!(single.stats.join_tuples, multi.stats.join_tuples);
        assert_eq!(single.stats.pruned_tuples, 0);
        assert_eq!(multi.stats.pruned_tuples, 0);
        assert!(single.stats.inserted_tuples > 0);
        assert!(single.stats.join_tuples > 0);
    }

    #[test]
    fn pressure_ladder_maps_usage_to_levels() {
        // The documented thresholds: <80% nominal, ≥80% forced pruning,
        // ≥90% admissions paused. Eviction (3) is episode-reported, never
        // usage-derived.
        assert_eq!(pressure_from_usage(0, 100), 0);
        assert_eq!(pressure_from_usage(79, 100), 0);
        assert_eq!(pressure_from_usage(80, 100), 1);
        assert_eq!(pressure_from_usage(89, 100), 1);
        assert_eq!(pressure_from_usage(90, 100), 2);
        assert_eq!(pressure_from_usage(1000, 100), 2);
        assert_eq!(PressureLevel::from_raw(0), PressureLevel::Nominal);
        assert_eq!(PressureLevel::from_raw(1), PressureLevel::ForcedPruning);
        assert_eq!(PressureLevel::from_raw(2), PressureLevel::AdmissionsPaused);
        assert_eq!(PressureLevel::from_raw(3), PressureLevel::Evicting);
        assert_eq!(PressureLevel::from_raw(200), PressureLevel::Evicting);
        let stats = EngineStats { memory_pressure: 3, ..EngineStats::default() };
        assert_eq!(stats.pressure_level(), PressureLevel::Evicting);
        assert!(PressureLevel::Nominal < PressureLevel::Evicting);
    }

    #[test]
    fn recorder_sees_admission_and_completion_events() {
        use roulette_telemetry::Telemetry;
        let c = tiny_catalog();
        let mut engine =
            RouletteEngine::new(&c, EngineConfig::default().with_vector_size(3).unwrap());
        let telemetry = Telemetry::with_defaults();
        engine.set_recorder(telemetry.clone());
        let out = engine.execute_batch(&[join_query(&c)]).unwrap();
        assert_eq!(out.per_query[0].rows, 6);
        let events = telemetry.events().snapshot();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds.iter().filter(|k| **k == "admission").count(),
            1,
            "{kinds:?}"
        );
        assert_eq!(
            kinds.iter().filter(|k| **k == "completion").count(),
            1,
            "{kinds:?}"
        );
        // Admission precedes completion in sequence order.
        let adm = events.iter().position(|e| e.kind.name() == "admission").unwrap();
        let cpl = events.iter().position(|e| e.kind.name() == "completion").unwrap();
        assert!(adm < cpl);
    }

    #[test]
    fn quarantine_emits_one_terminal_event() {
        use roulette_telemetry::{EventKind, Telemetry};
        let c = tiny_catalog();
        let mut engine = RouletteEngine::new(&c, EngineConfig::default());
        let telemetry = Telemetry::with_defaults();
        engine.set_recorder(telemetry.clone());
        let mut session = engine.session(1);
        let q = session.admit(join_query(&c)).unwrap();
        session.quarantine(q, Error::Internal("induced".into()));
        session.quarantine(q, Error::Internal("second time".into()));
        session.run();
        let out = session.finish();
        assert_eq!(out.stats.quarantined, 1);
        let events = telemetry.events().snapshot();
        let terminal: Vec<&EventKind> = events
            .iter()
            .map(|e| &e.kind)
            .filter(|k| matches!(k, EventKind::Quarantine { .. } | EventKind::Completion { .. }))
            .collect();
        assert_eq!(terminal.len(), 1, "{terminal:?}");
        assert!(matches!(terminal[0], EventKind::Quarantine { query: 0, .. }));
    }

    #[test]
    fn deadline_eviction_emits_dedicated_event_and_terminal_status() {
        use crate::output::CompletionStatus;
        use roulette_telemetry::{EventKind, Telemetry};
        let c = tiny_catalog();
        let mut engine = RouletteEngine::new(&c, EngineConfig::default());
        let telemetry = Telemetry::with_defaults();
        engine.set_recorder(telemetry.clone());
        let mut session = engine.session(2);
        let q0 = session.admit(join_query(&c)).unwrap();
        let q1 = session.admit(join_query(&c)).unwrap();
        // While live with unread input, there is no terminal status yet.
        assert_eq!(session.terminal_status(q0), None);
        session.quarantine(
            q0,
            Error::DeadlineExceeded { query: q0, message: "10 ms".into() },
        );
        assert_eq!(session.terminal_status(q0), Some(CompletionStatus::Quarantined));
        session.run_workers();
        assert!(matches!(
            session.query_error(q0),
            Some(Error::DeadlineExceeded { .. })
        ));
        assert_eq!(session.terminal_status(q1), Some(CompletionStatus::Complete));
        let out = session.finish();
        assert_eq!(out.per_query[1].rows, 6);
        assert_eq!(out.per_query[0].status, CompletionStatus::Quarantined);
        let events = telemetry.events().snapshot();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds.iter().filter(|k| **k == "deadline-exceeded").count(),
            1,
            "{kinds:?}"
        );
        // The deadline eviction is terminal: no quarantine or completion
        // event is also emitted for q0.
        assert!(events.iter().all(|e| !matches!(
            e.kind,
            EventKind::Quarantine { query: 0, .. } | EventKind::Completion { query: 0 }
        )));
    }

    #[test]
    fn pruning_reduces_insertions() {
        // Many fact rows dangle (fk=9): with dim ranked first and pruning
        // on, those rows are dropped before insertion.
        let c = tiny_catalog();
        let q = join_query(&c);
        let with = RouletteEngine::new(&c, EngineConfig::default().with_vector_size(2).unwrap())
            .execute_batch(std::slice::from_ref(&q))
            .unwrap();
        let mut cfg = EngineConfig::default().with_vector_size(2).unwrap();
        cfg.pruning = false;
        let without = RouletteEngine::new(&c, cfg).execute_batch(&[q]).unwrap();
        assert_eq!(with.per_query, without.per_query);
        assert!(with.stats.pruned_tuples > 0);
        assert!(with.stats.inserted_tuples < without.stats.inserted_tuples);
    }
}
