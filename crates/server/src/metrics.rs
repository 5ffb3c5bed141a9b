//! Server-level metrics, registered into the shared telemetry registry so
//! one Prometheus scrape covers the engine and the serving frontend.

use roulette_telemetry::{Gauge, Histogram, MetricsRegistry, ShardedCounter};
use std::sync::Arc;

/// Counters and gauges for the serving frontend. All handles are cheap
/// sharded/atomic cells; recording is wait-free.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    /// Queries admitted into the queue.
    pub admitted: Arc<ShardedCounter>,
    /// Queries refused with `overloaded` (depth, memory pressure, drain).
    pub shed: Arc<ShardedCounter>,
    /// Queries that reached `OK`.
    pub completed: Arc<ShardedCounter>,
    /// Queries that reached a terminal `ERR` (excluding sheds).
    pub failed: Arc<ShardedCounter>,
    /// Queries evicted for blowing their deadline.
    pub deadline_exceeded: Arc<ShardedCounter>,
    /// Request lines that failed to parse.
    pub protocol_errors: Arc<ShardedCounter>,
    /// Connections accepted over the server's lifetime.
    pub connections: Arc<ShardedCounter>,
    /// Micro-batches executed by the engine loop.
    pub batches: Arc<ShardedCounter>,
    /// `ROW` lines streamed to clients.
    pub rows_streamed: Arc<ShardedCounter>,
    /// Wire faults injected by chaos plans.
    pub wire_faults: Arc<ShardedCounter>,
    /// Jobs waiting in the admission queue.
    pub queue_depth: Arc<Gauge>,
    /// Currently open client connections.
    pub active_connections: Arc<Gauge>,
    /// 1 while the server is draining, else 0.
    pub draining: Arc<Gauge>,
    /// Heap bytes of the hosted catalog's columns (`Catalog::memory_bytes`),
    /// set at start and at every stream snapshot swap.
    pub catalog_bytes: Arc<Gauge>,
    /// End-to-end query latency in microseconds (admission to terminal
    /// response line), HDR-style power-of-two buckets.
    pub latency_us: Arc<Histogram>,
}

impl ServerMetrics {
    /// Registers every server metric in `reg` (idempotent per name).
    pub fn register(reg: &MetricsRegistry) -> Self {
        ServerMetrics {
            admitted: reg.counter(
                "roulette_server_admitted_total",
                "Queries admitted into the serving queue",
            ),
            shed: reg.counter(
                "roulette_server_shed_total",
                "Queries refused with overloaded (depth, pressure, or drain)",
            ),
            completed: reg.counter(
                "roulette_server_completed_total",
                "Queries answered with a terminal OK",
            ),
            failed: reg.counter(
                "roulette_server_failed_total",
                "Queries answered with a terminal ERR (excluding sheds)",
            ),
            deadline_exceeded: reg.counter(
                "roulette_server_deadline_exceeded_total",
                "Queries evicted for exceeding their deadline budget",
            ),
            protocol_errors: reg.counter(
                "roulette_server_protocol_errors_total",
                "Request lines refused as protocol violations",
            ),
            connections: reg.counter(
                "roulette_server_connections_total",
                "Client connections accepted",
            ),
            batches: reg.counter(
                "roulette_server_batches_total",
                "Micro-batches executed as shared sessions",
            ),
            rows_streamed: reg.counter(
                "roulette_server_rows_streamed_total",
                "Result ROW lines written to clients",
            ),
            wire_faults: reg.counter(
                "roulette_server_wire_faults_total",
                "Wire-layer faults injected by chaos plans",
            ),
            queue_depth: reg.gauge(
                "roulette_server_queue_depth",
                "Jobs waiting in the admission queue",
            ),
            active_connections: reg.gauge(
                "roulette_server_active_connections",
                "Currently open client connections",
            ),
            draining: reg.gauge(
                "roulette_server_draining",
                "1 while the server is draining, else 0",
            ),
            catalog_bytes: reg.gauge(
                "roulette_server_catalog_bytes",
                "Heap bytes of the hosted catalog's packed columns",
            ),
            latency_us: reg.histogram(
                "roulette_server_latency_us",
                "End-to-end query latency, microseconds",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_and_renders() {
        let reg = MetricsRegistry::new();
        let m = ServerMetrics::register(&reg);
        m.admitted.inc();
        m.queue_depth.set(3);
        m.catalog_bytes.set(4096);
        m.latency_us.record(1500);
        let mut out = Vec::new();
        reg.render_prometheus(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("roulette_server_admitted_total 1"), "{text}");
        assert!(text.contains("roulette_server_queue_depth 3"), "{text}");
        assert!(text.contains("roulette_server_catalog_bytes 4096"), "{text}");
        assert!(text.contains("roulette_server_latency_us"), "{text}");
    }

    #[test]
    fn register_is_idempotent_per_name() {
        let reg = MetricsRegistry::new();
        let a = ServerMetrics::register(&reg);
        let b = ServerMetrics::register(&reg);
        a.admitted.inc();
        b.admitted.inc();
        assert_eq!(a.admitted.total(), 2);
    }
}
