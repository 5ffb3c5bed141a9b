//! Engine configuration.
//!
//! All tuning knobs of the prototype are collected here, with the paper's
//! published defaults: 1024-tuple vectors (§3, "Episodes … map 1-1 to
//! vectors (1024 input tuples in our prototype)"), and the grid-searched
//! Q-learning hyper-parameters `μ = 0.21`, `ε = 0.014`, `γ = 1` (§6).
//!
//! Robustness knobs (`memory_budget_bytes`, the episode budgets) extend the
//! paper's design with fault isolation: they bound what one query or one
//! episode can cost the shared session. See DESIGN.md, "Failure semantics &
//! degradation ladder".

use crate::error::{Error, Result};

/// Telemetry knobs: how often the policy is probed and how many structured
/// events the bounded ring retains. These only take effect when a recorder
/// is attached to the engine; with no recorder, instrumentation compiles
/// down to a single branch per site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Sample a policy introspection probe (Q-table size, exploration
    /// share, TD error, reward distribution) every this many episodes.
    /// `0` disables policy probing.
    pub policy_probe_every: u64,
    /// Capacity of the structured event ring buffer; when full, the oldest
    /// event is dropped and a drop counter advances.
    pub event_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { policy_probe_every: 64, event_capacity: 1024 }
    }
}

/// Tuning knobs for the RouLette engine and its learned policy.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Tuples per ingested vector; episodes map 1-1 to vectors.
    pub vector_size: usize,
    /// Q-learning learning rate μ. Lowering μ trades learning speed for
    /// smoothing noise due to local data distribution (§4.3).
    pub mu: f64,
    /// ε-greedy exploration probability. Lowering ε trades exploration for
    /// Q-table exploitation (§4.3).
    pub epsilon: f64,
    /// Discount rate γ; the paper sets γ = 1 because future rewards are
    /// equally important.
    pub gamma: f64,
    /// Number of executor workers (episodes processed concurrently, §5.2).
    pub workers: usize,
    /// Enable symmetric join pruning (§5.2): the scan-order ranking, the
    /// semi-join of every vector against its complete join partners, and
    /// the elision of builds that nothing can probe any more (every partner
    /// complete). Disabled, relations scan round-robin and every selected
    /// tuple is inserted — the plain symmetric join, kept as the ablation
    /// and as the differential-testing oracle.
    pub pruning: bool,
    /// Enable adaptive projections (§5.2).
    pub adaptive_projections: bool,
    /// Enable range-based grouped filters; when disabled, shared selections
    /// fall back to per-query predicate evaluation (§5.1 / Fig. 18).
    pub grouped_filters: bool,
    /// Enable the locality-conscious two-pass router; when disabled, routers
    /// multicast tuples directly (§5.1 / Fig. 18).
    pub locality_router: bool,
    /// Seed for the policy's exploration randomness and any tie-breaking.
    pub seed: u64,
    /// Upper bound on STeM memory for a session, in bytes. `None` means
    /// unbounded (the seed behaviour). When set, the engine degrades in
    /// stages as pressure rises — force pruning on, refuse new admissions,
    /// finally quarantine the heaviest query — rather than aborting.
    pub memory_budget_bytes: Option<usize>,
    /// Watchdog: maximum join tuples one episode may produce before its
    /// join phase is replanned with the greedy fallback policy. `None`
    /// disables the tuple watchdog.
    pub episode_tuple_budget: Option<u64>,
    /// Watchdog: maximum wall-clock milliseconds for one episode's join
    /// phase before it is replanned with the greedy fallback policy.
    /// `None` disables the time watchdog.
    pub episode_time_budget_ms: Option<u64>,
    /// Telemetry sampling knobs; inert unless a recorder is attached.
    pub telemetry: TelemetryConfig,
    /// Reuse each worker's episode scratch arena across episodes (the
    /// allocation-free steady state). Disabling it makes every episode
    /// allocate fresh working buffers — the seed behaviour, kept as a
    /// differential-testing reference and allocator-pressure ablation.
    pub scratch_reuse: bool,
    /// Run the vector hot loops (filter masking, bulk query-set
    /// intersection, survivor compaction, routing partition) through the
    /// unrolled data-parallel kernel layer (DESIGN.md §14). Disabling it
    /// pins the scalar row-at-a-time reference path, which produces
    /// byte-identical results — used by the kernel differential tests and
    /// as an optimization ablation.
    pub wide_kernels: bool,
    /// Number of hash shards each relation's STeM is partitioned into
    /// (DESIGN.md §15). `1` (the default) is the unsharded legacy layout;
    /// larger values split every STeM by join-key hash so concurrent
    /// workers insert and probe under disjoint latches. Per-query results
    /// are identical across shard counts; sharding only changes which lock
    /// an episode touches.
    pub stem_shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            vector_size: 1024,
            mu: 0.21,
            epsilon: 0.014,
            gamma: 1.0,
            workers: 1,
            pruning: true,
            adaptive_projections: true,
            grouped_filters: true,
            locality_router: true,
            seed: 0x5EED_0001,
            memory_budget_bytes: None,
            episode_tuple_budget: None,
            episode_time_budget_ms: None,
            telemetry: TelemetryConfig::default(),
            scratch_reuse: true,
            wide_kernels: true,
            stem_shards: 1,
        }
    }
}

impl EngineConfig {
    /// Builder-style override of the vector size.
    pub fn with_vector_size(mut self, v: usize) -> Result<Self> {
        if v == 0 {
            return Err(Error::InvalidQuery("vector size must be positive".into()));
        }
        self.vector_size = v;
        Ok(self)
    }

    /// Builder-style override of the worker count.
    pub fn with_workers(mut self, w: usize) -> Result<Self> {
        if w == 0 {
            return Err(Error::InvalidQuery("worker count must be positive".into()));
        }
        self.workers = w;
        Ok(self)
    }

    /// Builder-style override of the learning hyper-parameters.
    pub fn with_learning(mut self, mu: f64, epsilon: f64, gamma: f64) -> Result<Self> {
        for (name, v) in [("μ", mu), ("ε", epsilon), ("γ", gamma)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(Error::InvalidQuery(format!("{name} must be in [0,1], got {v}")));
            }
        }
        self.mu = mu;
        self.epsilon = epsilon;
        self.gamma = gamma;
        Ok(self)
    }

    /// Builder-style override of the session memory budget.
    pub fn with_memory_budget(mut self, bytes: usize) -> Result<Self> {
        if bytes == 0 {
            return Err(Error::InvalidQuery("memory budget must be positive".into()));
        }
        self.memory_budget_bytes = Some(bytes);
        Ok(self)
    }

    /// Builder-style override of the episode watchdog budgets. Either
    /// budget may be `None` to disable that trigger.
    pub fn with_episode_budget(
        mut self,
        tuples: Option<u64>,
        time_ms: Option<u64>,
    ) -> Result<Self> {
        if tuples == Some(0) || time_ms == Some(0) {
            return Err(Error::InvalidQuery("episode budgets must be positive".into()));
        }
        self.episode_tuple_budget = tuples;
        self.episode_time_budget_ms = time_ms;
        Ok(self)
    }

    /// Builder-style override of the telemetry knobs. `policy_probe_every`
    /// may be 0 (probing disabled), but the event ring must hold at least
    /// one event.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Result<Self> {
        if telemetry.event_capacity == 0 {
            return Err(Error::InvalidQuery("event capacity must be positive".into()));
        }
        self.telemetry = telemetry;
        Ok(self)
    }

    /// Builder-style override of the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of scratch-arena reuse (see
    /// [`EngineConfig::scratch_reuse`]).
    pub fn with_scratch_reuse(mut self, reuse: bool) -> Self {
        self.scratch_reuse = reuse;
        self
    }

    /// Builder-style override of the STeM shard count (see
    /// [`EngineConfig::stem_shards`]). Rejects 0; capped at 64 shards —
    /// beyond that the per-shard bucket tables fragment without buying
    /// additional lock disjointness on realistic core counts.
    pub fn with_stem_shards(mut self, shards: usize) -> Result<Self> {
        if shards == 0 {
            return Err(Error::InvalidQuery("stem shard count must be positive".into()));
        }
        if shards > 64 {
            return Err(Error::InvalidQuery(format!(
                "stem shard count must be ≤ 64, got {shards}"
            )));
        }
        self.stem_shards = shards;
        Ok(self)
    }

    /// Builder-style override of the data-parallel kernel layer (see
    /// [`EngineConfig::wide_kernels`]). `false` pins the scalar reference
    /// path used by the `kernel_equiv` differential suite.
    pub fn with_wide_kernels(mut self, wide: bool) -> Self {
        self.wide_kernels = wide;
        self
    }

    /// Disables every §5 optimization — the "Plain" configuration of the
    /// ablation experiments (Figs. 17–18).
    pub fn plain(mut self) -> Self {
        self.pruning = false;
        self.adaptive_projections = false;
        self.grouped_filters = false;
        self.locality_router = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EngineConfig::default();
        assert_eq!(c.vector_size, 1024);
        assert_eq!(c.mu, 0.21);
        assert_eq!(c.epsilon, 0.014);
        assert_eq!(c.gamma, 1.0);
        assert!(c.pruning && c.adaptive_projections && c.grouped_filters && c.locality_router);
        // Sharding is an extension knob; the paper's layout is one STeM
        // (one latch) per relation.
        assert_eq!(c.stem_shards, 1);
    }

    #[test]
    fn plain_disables_all_optimizations() {
        let c = EngineConfig::default().plain();
        assert!(!c.pruning);
        assert!(!c.adaptive_projections);
        assert!(!c.grouped_filters);
        assert!(!c.locality_router);
    }

    #[test]
    fn builders_apply() {
        let c = EngineConfig::default()
            .with_vector_size(256)
            .unwrap()
            .with_workers(4)
            .unwrap()
            .with_learning(0.5, 0.1, 0.9)
            .unwrap()
            .with_memory_budget(1 << 20)
            .unwrap()
            .with_episode_budget(Some(10_000), None)
            .unwrap()
            .with_stem_shards(8)
            .unwrap()
            .with_seed(7);
        assert_eq!(c.vector_size, 256);
        assert_eq!(c.workers, 4);
        assert_eq!(c.stem_shards, 8);
        assert_eq!((c.mu, c.epsilon, c.gamma), (0.5, 0.1, 0.9));
        assert_eq!(c.seed, 7);
        assert_eq!(c.memory_budget_bytes, Some(1 << 20));
        assert_eq!(c.episode_tuple_budget, Some(10_000));
        assert_eq!(c.episode_time_budget_ms, None);
    }

    #[test]
    fn invalid_knobs_are_errors_not_panics() {
        assert!(matches!(
            EngineConfig::default().with_vector_size(0),
            Err(Error::InvalidQuery(_))
        ));
        assert!(matches!(
            EngineConfig::default().with_workers(0),
            Err(Error::InvalidQuery(_))
        ));
        let e = EngineConfig::default().with_learning(1.5, 0.1, 1.0).unwrap_err();
        assert!(e.to_string().contains("μ"), "{e}");
        assert!(EngineConfig::default().with_memory_budget(0).is_err());
        assert!(EngineConfig::default().with_stem_shards(0).is_err());
        assert!(EngineConfig::default().with_stem_shards(65).is_err());
        assert!(EngineConfig::default().with_stem_shards(64).is_ok());
        assert!(EngineConfig::default().with_episode_budget(Some(0), None).is_err());
        assert!(EngineConfig::default()
            .with_telemetry(TelemetryConfig { policy_probe_every: 1, event_capacity: 0 })
            .is_err());
    }

    #[test]
    fn telemetry_defaults_and_builder() {
        let c = EngineConfig::default();
        assert_eq!(c.telemetry.policy_probe_every, 64);
        assert_eq!(c.telemetry.event_capacity, 1024);
        let c = c
            .with_telemetry(TelemetryConfig { policy_probe_every: 0, event_capacity: 16 })
            .unwrap();
        assert_eq!(c.telemetry.policy_probe_every, 0);
        assert_eq!(c.telemetry.event_capacity, 16);
    }
}
