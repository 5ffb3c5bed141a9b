//! Named-metric registry and Prometheus text-format rendering.
//!
//! The registry interns metrics by name behind `Arc`s: callers fetch (or
//! lazily create) a metric once at setup time and then record against the
//! returned handle lock-free. The registry latch is only taken on
//! registration and on export, never on the recording hot path.

use roulette_core::sync::{LockRank, Mutex};
use std::io;
use std::sync::Arc;

use crate::histogram::{bucket_upper_bound, Histogram};
use crate::metrics::{FloatGauge, Gauge, ShardedCounter};

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<ShardedCounter>),
    Gauge(Arc<Gauge>),
    FloatGauge(Arc<FloatGauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Registered {
    name: String,
    help: String,
    metric: Metric,
}

/// A registry of named metrics. Cloned handles share the same storage.
#[derive(Debug)]
pub struct MetricsRegistry {
    inner: Mutex<Vec<Registered>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry { inner: Mutex::new(LockRank::MetricsRegistry, Vec::new()) }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert(&self, name: &str, help: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut inner = self.inner.lock();
        if let Some(r) = inner.iter().find(|r| r.name == name) {
            return r.metric.clone();
        }
        let metric = make();
        inner.push(Registered {
            name: name.to_string(),
            help: help.to_string(),
            metric: metric.clone(),
        });
        metric
    }

    /// The counter registered as `name`, created on first use.
    ///
    /// Returns a fresh unregistered counter if `name` is already registered
    /// with a different metric type (exporters then see the original).
    pub fn counter(&self, name: &str, help: &str) -> Arc<ShardedCounter> {
        match self.get_or_insert(name, help, || {
            Metric::Counter(Arc::new(ShardedCounter::default()))
        }) {
            Metric::Counter(c) => c,
            _ => Arc::new(ShardedCounter::default()),
        }
    }

    /// The integer gauge registered as `name`, created on first use.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, help, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => Arc::new(Gauge::new()),
        }
    }

    /// The floating-point gauge registered as `name`, created on first use.
    pub fn float_gauge(&self, name: &str, help: &str) -> Arc<FloatGauge> {
        match self.get_or_insert(name, help, || Metric::FloatGauge(Arc::new(FloatGauge::new()))) {
            Metric::FloatGauge(g) => g,
            _ => Arc::new(FloatGauge::new()),
        }
    }

    /// The histogram registered as `name`, created on first use.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, help, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format, sorted by metric name. Histograms are emitted with
    /// cumulative `_bucket{le="..."}` series up to the highest non-empty
    /// bucket, plus `_sum` and `_count`.
    pub fn render_prometheus(&self, w: &mut dyn io::Write) -> io::Result<()> {
        let mut entries: Vec<(String, String, Metric)> = self
            .inner
            .lock()
            .iter()
            .map(|r| (r.name.clone(), r.help.clone(), r.metric.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, help, metric) in entries {
            writeln!(w, "# HELP {name} {help}")?;
            match metric {
                Metric::Counter(c) => {
                    writeln!(w, "# TYPE {name} counter")?;
                    writeln!(w, "{name} {}", c.total())?;
                }
                Metric::Gauge(g) => {
                    writeln!(w, "# TYPE {name} gauge")?;
                    writeln!(w, "{name} {}", g.get())?;
                }
                Metric::FloatGauge(g) => {
                    writeln!(w, "# TYPE {name} gauge")?;
                    writeln!(w, "{name} {}", g.get())?;
                }
                Metric::Histogram(h) => {
                    writeln!(w, "# TYPE {name} histogram")?;
                    let snap = h.snapshot();
                    let last = snap.max_bucket().unwrap_or(0);
                    let mut cum = 0u64;
                    for (i, &c) in snap.counts.iter().enumerate().take(last + 1) {
                        cum += c;
                        writeln!(
                            w,
                            "{name}_bucket{{le=\"{}\"}} {cum}",
                            bucket_upper_bound(i)
                        )?;
                    }
                    writeln!(w, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count())?;
                    writeln!(w, "{name}_sum {}", snap.sum)?;
                    writeln!(w, "{name}_count {}", snap.count())?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(reg: &MetricsRegistry) -> String {
        let mut out = Vec::new();
        reg.render_prometheus(&mut out).expect("render");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn counter_handles_are_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("roulette_episodes_total", "episodes");
        let b = reg.counter("roulette_episodes_total", "episodes");
        a.add(3);
        b.add(4);
        assert_eq!(a.total(), 7);
    }

    #[test]
    fn type_mismatch_yields_detached_metric() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x", "a counter");
        let g = reg.gauge("x", "not a counter");
        c.inc();
        g.set(99);
        // The registered metric is still the counter.
        let text = render(&reg);
        assert!(text.contains("# TYPE x counter"));
        assert!(text.contains("x 1"));
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_complete() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total", "second").add(2);
        reg.gauge("a_gauge", "first").set(5);
        reg.float_gauge("c_ratio", "third").set(0.5);
        let text = render(&reg);
        let a = text.find("a_gauge").expect("a_gauge present");
        let b = text.find("b_total").expect("b_total present");
        let c = text.find("c_ratio").expect("c_ratio present");
        assert!(a < b && b < c);
        assert!(text.contains("# HELP a_gauge first"));
        assert!(text.contains("a_gauge 5"));
        assert!(text.contains("c_ratio 0.5"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns", "latency");
        h.record(1);
        h.record(3);
        h.record(3);
        let text = render(&reg);
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"3\"} 3"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_sum 7"));
        assert!(text.contains("lat_ns_count 3"));
    }
}
