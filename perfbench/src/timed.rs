//! Timing of the bound layer from outside: an [`AppVer`] wrapper that
//! forwards every call unchanged and records how many calls it saw and
//! how long they took.

use abonn_bound::{Analysis, AppVer, BoundPrefix, CachedAnalysis, InputBox, SplitSet};
use abonn_nn::CanonicalNetwork;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Forwards to `inner`, counting calls and busy nanoseconds.
///
/// Both trait methods are forwarded (never the trait's default
/// `analyze_cached`), so the wrapped engine takes exactly the code path
/// of the unwrapped one.
pub struct TimedAppVer {
    inner: Arc<dyn AppVer>,
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl TimedAppVer {
    pub fn new(inner: Arc<dyn AppVer>) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// `(calls, busy seconds)` recorded so far.
    pub fn totals(&self) -> (u64, f64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        )
    }

    fn record(&self, start: Instant) {
        // Relaxed: plain statistics that publish no other data; they are
        // read after the engine's run has returned on this thread.
        self.calls.fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

impl AppVer for TimedAppVer {
    fn analyze(&self, net: &CanonicalNetwork, region: &InputBox, splits: &SplitSet) -> Analysis {
        let start = Instant::now();
        let out = self.inner.analyze(net, region, splits);
        self.record(start);
        out
    }

    fn analyze_cached(
        &self,
        net: &CanonicalNetwork,
        region: &InputBox,
        splits: &SplitSet,
        parent: Option<&Arc<BoundPrefix>>,
    ) -> CachedAnalysis {
        let start = Instant::now();
        let out = self.inner.analyze_cached(net, region, splits, parent);
        self.record(start);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
