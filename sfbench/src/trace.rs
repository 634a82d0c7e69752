//! Layer spans recorded from the benchmark's side of each layer boundary.
//!
//! [`Traced`] wraps any [`ReadClassifier`] and times every call the layer
//! above makes into it (`start_read`, `push_chunk`, `finalize`), so the
//! benchmark can attribute wall time to a layer without touching program
//! code. Nesting two wrappers (around a sharded catalog and around each of
//! its shard filters) separates a layer's self time from its children's:
//! the difference of the two [`Spans`] totals is the shard layer's own cost.
//!
//! [`Window`] reads the program's `sf-telemetry` counters at the same
//! boundaries, as deltas over one timed phase.

use squigglefilter::sdtw::{ClassifierSession, Decision, ReadClassifier, StreamClassification};
use squigglefilter::telemetry::{self, Snapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finalized session as seen through a [`Traced`] classifier.
#[derive(Debug, Clone, Copy)]
pub struct SessionSpan {
    /// Order in which the session was opened (0, 1, 2, … per [`Spans`]).
    pub seq: u64,
    /// Nanoseconds of the call that made the decision final plus the
    /// `finalize` call that returned it.
    pub deciding_ns: u64,
}

/// Accumulated spans of one layer.
#[derive(Debug, Default)]
pub struct Spans {
    busy_ns: AtomicU64,
    opened: AtomicU64,
    finished: Mutex<Vec<SessionSpan>>,
}

impl Spans {
    /// Nanoseconds spent inside the wrapped layer's calls.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Finalized sessions, in finalize order.
    pub fn finished(&self) -> Vec<SessionSpan> {
        self.finished.lock().expect("span log").clone()
    }

    fn add(&self, since: Instant) -> u64 {
        let ns = since.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        ns
    }
}

/// A classifier whose sessions report their call times into [`Spans`].
#[derive(Debug)]
pub struct Traced<'s, C> {
    inner: C,
    spans: &'s Spans,
}

impl<'s, C> Traced<'s, C> {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: C, spans: &'s Spans) -> Self {
        Traced { inner, spans }
    }
}

impl<C: ReadClassifier> ReadClassifier for Traced<'_, C> {
    fn start_read(&self) -> Box<dyn ClassifierSession + '_> {
        let t = Instant::now();
        let inner = self.inner.start_read();
        let seq = self.spans.opened.fetch_add(1, Ordering::Relaxed);
        self.spans.add(t);
        Box::new(TracedSession {
            inner,
            spans: self.spans,
            seq,
            deciding_ns: 0,
        })
    }

    fn max_decision_samples(&self) -> usize {
        self.inner.max_decision_samples()
    }
}

struct TracedSession<'a> {
    inner: Box<dyn ClassifierSession + 'a>,
    spans: &'a Spans,
    seq: u64,
    deciding_ns: u64,
}

impl ClassifierSession for TracedSession<'_> {
    fn push_chunk(&mut self, chunk: &[u16]) -> Decision {
        let was_final = self.inner.decision().is_final();
        let t = Instant::now();
        let decision = self.inner.push_chunk(chunk);
        let ns = self.spans.add(t);
        if decision.is_final() && !was_final {
            self.deciding_ns = ns;
        }
        decision
    }

    fn decision(&self) -> Decision {
        self.inner.decision()
    }

    fn samples_consumed(&self) -> usize {
        self.inner.samples_consumed()
    }

    fn finalize(&mut self) -> StreamClassification {
        let t = Instant::now();
        let outcome = self.inner.finalize();
        let ns = self.spans.add(t);
        self.spans
            .finished
            .lock()
            .expect("span log")
            .push(SessionSpan {
                seq: self.seq,
                deciding_ns: self.deciding_ns + ns,
            });
        outcome
    }
}

/// Telemetry counters read at the start and end of one timed phase.
#[derive(Debug)]
pub struct Window {
    before: Snapshot,
    after: Option<Snapshot>,
}

/// Counter names read from the program's telemetry registry.
pub mod counters {
    pub use squigglefilter::sdtw::telemetry::{
        SDTW_DP_CELLS as DP_CELLS, SDTW_STAGE_DECISION_NS as DECISION_NS, SDTW_STAGE_DP_NS as DP_NS,
    };
    pub use squigglefilter::shard::telemetry::SHARD_FANOUT_SESSIONS as FANOUT_SESSIONS;
    pub use squigglefilter::squiggle::telemetry::{
        NORMALIZE_CALIBRATIONS as CALIBRATIONS, NORMALIZE_ESTIMATE_NS as ESTIMATE_NS,
    };
}

impl Window {
    /// Opens the window at the current counter values.
    pub fn open() -> Self {
        Window {
            before: telemetry::snapshot(),
            after: None,
        }
    }

    /// Closes the window at the current counter values.
    pub fn close(&mut self) {
        self.after = Some(telemetry::snapshot());
    }

    /// How much the counter `name` grew inside the window.
    pub fn delta(&self, name: &str) -> u64 {
        let after = self.after.as_ref().expect("window closed before reading");
        after.counter_delta(&self.before, name)
    }
}

/// `true` when the program was built with its telemetry registry on (the
/// per-layer counters read 0 otherwise).
pub fn telemetry_enabled() -> bool {
    telemetry::snapshot().enabled
}
