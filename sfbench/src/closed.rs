//! The closed loop shared by `covid_stream` and `panel9_stream`: one thread
//! streams one read at a time through a classifier session in 400-sample
//! chunks, and starts the next read only once the previous one is decided.

use crate::inputs::{LabelledRead, CHUNK_SAMPLES};
use crate::report::{self, Checks, Metric};
use crate::stats::quantile;
use crate::trace::{self, counters, Spans, Window};
use squigglefilter::sdtw::{ReadClassifier, StreamClassification};
use std::time::Instant;

/// One decided read of a timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Decided {
    /// Index of the read in the pool.
    pub read: usize,
    pub outcome: StreamClassification,
    /// From the start of the push that completed the decision's input to
    /// the return of `finalize`.
    pub latency_ns: u64,
}

/// Streams one read through a fresh session until it is decided.
pub fn decide<C: ReadClassifier + ?Sized>(
    classifier: &C,
    read: &LabelledRead,
) -> (StreamClassification, u64) {
    let mut session = classifier.start_read();
    let mut last_push = Instant::now();
    for chunk in read.squiggle.samples().chunks(CHUNK_SAMPLES) {
        last_push = Instant::now();
        if session.push_chunk(chunk).is_final() {
            break;
        }
    }
    let outcome = session.finalize();
    (outcome, last_push.elapsed().as_nanos() as u64)
}

/// Reads per round: a closed loop measures whole rounds.
pub const ROUND: usize = 10;

/// Round `index`: the next [`ROUND`] reads of the pool, wrapping around.
fn run_round<C: ReadClassifier + ?Sized>(
    classifier: &C,
    pool: &[LabelledRead],
    index: usize,
    out: &mut Vec<Decided>,
) {
    for k in 0..ROUND {
        let read = (index * ROUND + k) % pool.len();
        let (outcome, latency_ns) = decide(classifier, &pool[read]);
        out.push(Decided {
            read,
            outcome,
            latency_ns,
        });
    }
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub wall_s: f64,
    pub decided: Vec<Decided>,
}

/// Runs whole rounds until `seconds` have elapsed (the round in progress
/// when time is up is completed and counted).
pub fn measure<C: ReadClassifier + ?Sized>(
    classifier: &C,
    pool: &[LabelledRead],
    seconds: f64,
) -> Phase {
    let mut decided = Vec::new();
    let start = Instant::now();
    let mut index = 0;
    while start.elapsed().as_secs_f64() < seconds {
        run_round(classifier, pool, index, &mut decided);
        index += 1;
    }
    Phase {
        wall_s: start.elapsed().as_secs_f64(),
        decided,
    }
}

/// Program telemetry summed over the traced rounds.
#[derive(Debug, Default)]
pub struct Tally {
    pub dp_ns: u64,
    pub dp_cells: u64,
    pub estimate_ns: u64,
    pub decision_ns: u64,
    pub calibrations: u64,
    pub fanout_sessions: u64,
}

impl Tally {
    pub fn absorb(&mut self, w: &Window) {
        self.dp_ns += w.delta(counters::DP_NS);
        self.dp_cells += w.delta(counters::DP_CELLS);
        self.estimate_ns += w.delta(counters::ESTIMATE_NS);
        self.decision_ns += w.delta(counters::DECISION_NS);
        self.calibrations += w.delta(counters::CALIBRATIONS);
        self.fanout_sessions += w.delta(counters::FANOUT_SESSIONS);
    }

    /// Time the program's own chunk clock measured inside its sessions:
    /// normalization, the DP kernel and the decision scans.
    pub fn program_ns(&self) -> u64 {
        self.dp_ns + self.estimate_ns + self.decision_ns
    }
}

/// A traced measurement: rounds alternate between the plain classifier and
/// its traced twin over the same pool, so drift hits both alike and the
/// wall-time ratio of the two is the tracing overhead.
#[derive(Debug, Default)]
pub struct TracedPhase {
    pub plain: Phase,
    pub traced: Phase,
    pub tally: Tally,
}

pub fn measure_traced<P: ReadClassifier + ?Sized, T: ReadClassifier + ?Sized>(
    plain: &P,
    traced: &T,
    pool: &[LabelledRead],
    seconds: f64,
) -> TracedPhase {
    let mut out = TracedPhase::default();
    let start = Instant::now();
    let mut index = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        run_round(plain, pool, index, &mut out.plain.decided);
        out.plain.wall_s += t.elapsed().as_secs_f64();

        let mut window = Window::open();
        let t = Instant::now();
        run_round(traced, pool, index + 1, &mut out.traced.decided);
        out.traced.wall_s += t.elapsed().as_secs_f64();
        window.close();
        out.tally.absorb(&window);
        index += 2;
    }
    out
}

/// The end-to-end metrics of a closed-loop phase (`setup_s` is added by the
/// caller).
pub fn end_to_end(
    phase: &Phase,
    pool: &[LabelledRead],
    is_correct: impl Fn(&LabelledRead, &StreamClassification) -> bool,
) -> Vec<Metric> {
    let correct = phase
        .decided
        .iter()
        .filter(|d| is_correct(&pool[d.read], &d.outcome))
        .count();
    let samples: Vec<f64> = phase
        .decided
        .iter()
        .map(|d| d.outcome.samples_consumed as f64)
        .collect();
    let latency_ms: Vec<f64> = phase
        .decided
        .iter()
        .map(|d| d.latency_ns as f64 / 1e6)
        .collect();
    report::end_to_end(correct, &samples, &latency_ms, phase.wall_s)
}

/// The metrics of the layers under the loop (normalizer, sDTW kernel and
/// session, shard fan-out) over `n` decisions. `top` spans the calls made
/// into the classifier the loop drives; `filters` spans the single-reference
/// filter sessions underneath (the same spans as `top` when the loop drives
/// a filter directly).
pub fn layer_metrics(
    tally: &Tally,
    n: usize,
    early: usize,
    top: &Spans,
    filters: &Spans,
) -> Vec<Metric> {
    let n = n.max(1) as f64;
    let t = tally;
    let ms = |ns: f64| ns / 1e6 / n;
    let deciding_ms: Vec<f64> = top
        .finished()
        .iter()
        .map(|s| s.deciding_ns as f64 / 1e6)
        .collect();
    let filter_ns = filters.busy_ns() as f64;
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric(
            "sf-squiggle.normalize_ms_per_decision",
            ms(t.estimate_ns as f64),
            "ms",
        ),
        metric(
            "sf-squiggle.calibrations_per_decision",
            t.calibrations as f64 / n,
            "count",
        ),
        metric(
            "sf-sdtw.kernel.cells_per_decision",
            t.dp_cells as f64 / n,
            "cells",
        ),
        metric(
            "sf-sdtw.kernel.cells_per_s",
            t.dp_cells as f64 / (t.dp_ns.max(1) as f64 / 1e9),
            "cells/s",
        ),
        metric("sf-sdtw.kernel.ms_per_decision", ms(t.dp_ns as f64), "ms"),
        metric(
            "sf-sdtw.session.overhead_ms_per_decision",
            ms(filter_ns - t.dp_ns as f64 - t.estimate_ns as f64),
            "ms",
        ),
        metric(
            "sf-sdtw.session.deciding_push_ms_p50",
            quantile(&deciding_ms, 0.5),
            "ms",
        ),
        metric(
            "sf-sdtw.session.early_decision_share",
            early as f64 / n,
            "fraction",
        ),
        metric(
            "sf-shard.fanout_sessions_per_decision",
            t.fanout_sessions as f64 / n,
            "count",
        ),
        metric(
            "sf-shard.overhead_ms_per_decision",
            ms(top.busy_ns() as f64 - filter_ns),
            "ms",
        ),
    ]
}

/// The per-layer metrics of a traced closed-loop phase (see
/// [`layer_metrics`]). `trace.attributed_fraction` is the layer time
/// measured directly, over the traced wall time: the program's own chunk
/// clock (normalization, kernel, decision scans) plus the shard layer's self
/// time (`top` minus `filters`). Session bookkeeping outside the program's
/// chunk clock and the loop itself are what it leaves unattributed.
pub fn per_layer(run: &TracedPhase, top: &Spans, filters: &Spans) -> Vec<Metric> {
    let n = run.traced.decided.len();
    let early = run
        .traced
        .decided
        .iter()
        .filter(|d| d.outcome.decided_early)
        .count();
    let plain_per = run.plain.wall_s / run.plain.decided.len().max(1) as f64;
    let traced_per = run.traced.wall_s / n.max(1) as f64;
    let mut metrics = layer_metrics(&run.tally, n, early, top, filters);
    metrics.extend(absent_scheduler());
    metrics.extend([
        Metric {
            name: "trace.attributed_fraction",
            value: (run.tally.program_ns() + top.busy_ns().saturating_sub(filters.busy_ns()))
                as f64
                / 1e9
                / run.traced.wall_s,
            unit: "fraction",
        },
        Metric {
            name: "trace.overhead_fraction",
            value: traced_per / plain_per - 1.0,
            unit: "fraction",
        },
    ]);
    metrics
}

/// Checks that the traced layer times nest as the layers do, so that no
/// residual layer time is negative: the program's chunk clock runs inside
/// the filter-session calls (`filters`), those inside the calls into the
/// top-level classifier (`top`), and those inside the traced wall time.
/// A traced run without the program's telemetry fails: every counter-based
/// layer metric would read 0 and the session overhead would take in the
/// kernel.
pub fn check_trace(checks: &mut Checks, tally: &Tally, top: &Spans, filters: &Spans, wall_s: f64) {
    checks.check(
        "traced run has the program's telemetry",
        trace::telemetry_enabled(),
        || "sf-telemetry is compiled out; per-layer counters read 0".to_string(),
    );
    let (program, filter, top) = (tally.program_ns(), filters.busy_ns(), top.busy_ns());
    checks.check(
        "program chunk time within filter-session time",
        program > 0 && program <= filter,
        || format!("program {program} ns vs filter sessions {filter} ns"),
    );
    checks.check(
        "filter-session time within top-level session time",
        filter <= top,
        || format!("filter sessions {filter} ns vs top-level sessions {top} ns"),
    );
    checks.check(
        "top-level session time within traced wall time",
        top as f64 / 1e9 <= wall_s,
        || format!("top-level sessions {top} ns vs wall {wall_s} s"),
    );
}

/// The scheduler and the paced feeder are not on a closed loop's path:
/// their metrics read 0 here.
fn absent_scheduler() -> Vec<Metric> {
    [
        ("sf-sched.chunk_queue_wait_ms_p50", "ms"),
        ("sf-sched.decision_wait_ms_p50", "ms"),
        ("sf-sched.late_chunks_per_decision", "count"),
        ("sf-sched.busy_fraction", "fraction"),
        ("bench.feeder.lateness_ms_p99", "ms"),
    ]
    .into_iter()
    .map(|(name, unit)| Metric {
        name,
        value: 0.0,
        unit,
    })
    .collect()
}
