//! Execution-time breakdown counters (Figs. 17–18's Filter/Build/Probe/
//! Route profile), plus the policy's own time ([`Category::Plan`]), which
//! the paper's figures leave out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Cost categories in the paper's breakdown figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Selection-phase filtering (grouped filters + pruning semi-joins).
    Filter,
    /// STeM inserts (symmetric-join build side).
    Build,
    /// STeM probes.
    Probe,
    /// Output routing.
    Route,
    /// The policy's decisions and learning: selection and join planning,
    /// projection assignment, and the fold of the episode's log into the
    /// policy, each timed from before its policy-latch acquisition (so
    /// latch waits count here too). Not one of the paper's four.
    Plan,
}

/// Thread-safe accumulated nanoseconds per category.
#[derive(Debug, Default)]
pub struct Profile {
    filter_ns: AtomicU64,
    build_ns: AtomicU64,
    probe_ns: AtomicU64,
    route_ns: AtomicU64,
    plan_ns: AtomicU64,
}

impl Profile {
    /// Zeroed profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `ns` to `cat`.
    #[inline]
    pub fn add(&self, cat: Category, ns: u64) {
        self.counter(cat).fetch_add(ns, Ordering::Relaxed);
    }

    /// Times `f` and charges it to `cat`.
    #[inline]
    pub fn time<T>(&self, cat: Category, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(cat, t0.elapsed().as_nanos() as u64);
        out
    }

    /// Accumulated nanoseconds for `cat`.
    pub fn get(&self, cat: Category) -> u64 {
        // ordering: profiling snapshot; tearing across categories is fine.
        self.counter(cat).load(Ordering::Relaxed)
    }

    /// `(filter, build, probe, route)` nanoseconds: the paper's four
    /// categories.
    pub fn breakdown(&self) -> (u64, u64, u64, u64) {
        (
            self.get(Category::Filter),
            self.get(Category::Build),
            self.get(Category::Probe),
            self.get(Category::Route),
        )
    }

    fn counter(&self, cat: Category) -> &AtomicU64 {
        match cat {
            Category::Filter => &self.filter_ns,
            Category::Build => &self.build_ns,
            Category::Probe => &self.probe_ns,
            Category::Route => &self.route_ns,
            Category::Plan => &self.plan_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let p = Profile::new();
        p.add(Category::Probe, 100);
        p.add(Category::Probe, 50);
        p.add(Category::Route, 7);
        p.add(Category::Plan, 3);
        assert_eq!(p.get(Category::Probe), 150);
        assert_eq!(p.get(Category::Plan), 3);
        assert_eq!(p.breakdown(), (0, 0, 150, 7));
    }

    #[test]
    fn time_charges_elapsed() {
        let p = Profile::new();
        let v = p.time(Category::Filter, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(p.get(Category::Filter) >= 1_000_000);
    }
}
