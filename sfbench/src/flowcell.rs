//! `flowcell_paced`: an open loop. Interleaved 400-sample chunks of a
//! simulated flow cell's reads are sent at their trace times into a default
//! one-worker `SessionScheduler` running the calibrated covid filter; as in
//! `run_service`, a read's chunks stop once its decision has come back. One
//! benchmark thread sends chunks and receives outcomes.

use crate::closed::{self, layer_metrics, Tally};
use crate::inputs::{self, derive, LabelledRead};
use crate::report::{self, Checks, Metric, Report};
use crate::stats::quantile;
use crate::trace::{Spans, Traced, Window};
use crate::{covid, Args};
use squigglefilter::sched::telemetry::SCHED_CHUNK_QUEUE_WAIT_NS;
use squigglefilter::sched::{
    Arrival, MicroBatchConfig, SchedulerReport, SessionId, SessionOutcome, SessionScheduler,
};
use squigglefilter::sdtw::{ReadClassifier, SquiggleFilter, StreamClassification};
use squigglefilter::sim::read::{ReadOrigin, ReadSimulator, ReadSimulatorConfig};
use squigglefilter::sim::squiggle_sim::SquiggleSimulator;
use squigglefilter::sim::{
    ArrivalTrace, FlowCellConfig, FlowCellSimulator, SquiggleSimulatorConfig, TraceChunk,
    TraceConfig,
};
use squigglefilter::telemetry;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Channels of the simulated flow cell. With the default capture gap (1 s)
/// and read length (8 kb at 450 b/s) each channel starts a read every
/// ≈19 s; 40 channels bring 48 reads into a 25 s window (≈1.9 reads/s), at
/// about a quarter of one core's covid capacity (≈8 decisions/s). Higher
/// loads amplify the host's speed drift into queueing: at 60 channels the
/// latency p50 of one seed ranged 210–266 ms over three back-to-back runs.
const CHANNELS: usize = 40;
/// Seed of the flow cell's capture schedule.
const SCHEDULE_SEED: u64 = 0;
/// Trace time skipped before the timed window, so every channel is past
/// its first capture and the arrivals are in steady state.
const WARMUP_S: f64 = 20.0;
/// Reads of the fixed subsample replayed sequentially for the parity check.
const PARITY_READS: usize = 12;

/// One read of the timed window, as the feeder saw it.
#[derive(Debug, Clone, Default)]
struct ReadLog {
    /// `(end sample, due time)` of every chunk sent, in order.
    sent: Vec<(usize, Instant)>,
    /// Outcomes received, with their receive time.
    outcomes: Vec<(StreamClassification, Instant)>,
}

impl ReadLog {
    /// Due time of the chunk that completed the decision's input.
    fn completing_due(&self, samples: usize) -> Option<Instant> {
        self.sent
            .iter()
            .find(|(end, _)| *end >= samples)
            .or(self.sent.last())
            .map(|&(_, due)| due)
    }
}

/// What one paced replay measured.
struct Replay {
    /// Trace reads of the timed window, by trace index.
    logs: Vec<(usize, ReadLog)>,
    wall_s: f64,
    lateness_ms: Vec<f64>,
    report: SchedulerReport,
}

impl Replay {
    /// `(read, outcome, latency ms)` for every read with exactly one outcome.
    fn decided(&self) -> Vec<(usize, StreamClassification, f64)> {
        self.logs
            .iter()
            .filter(|(_, log)| log.outcomes.len() == 1)
            .map(|(read, log)| {
                let (outcome, received) = log.outcomes[0];
                let due = log
                    .completing_due(outcome.samples_consumed)
                    .expect("a read with an outcome had chunks sent");
                let latency = received.saturating_duration_since(due);
                (*read, outcome, latency.as_secs_f64() * 1e3)
            })
            .collect()
    }
}

/// Sends the window's chunks at their due times and collects outcomes.
fn replay<C: ReadClassifier + Sync>(
    classifier: &C,
    trace: &ArrivalTrace,
    window: &[TraceChunk],
) -> Replay {
    let mut slot = vec![usize::MAX; trace.reads.len()];
    let mut logs: Vec<(usize, ReadLog)> = Vec::new();
    for chunk in window {
        if slot[chunk.read] == usize::MAX {
            slot[chunk.read] = logs.len();
            logs.push((chunk.read, ReadLog::default()));
        }
    }
    let scheduler = SessionScheduler::new(MicroBatchConfig::default());
    let (ingest_tx, ingest_rx) = mpsc::channel::<Arrival>();
    let (done_tx, done_rx) = mpsc::channel::<SessionOutcome>();
    let mut lateness_ms = Vec::with_capacity(window.len());
    let start = Instant::now() + Duration::from_millis(20);
    let origin = window.first().map_or(0.0, |c| c.time_s);
    let absorb = |logs: &mut Vec<(usize, ReadLog)>, outcome: SessionOutcome| {
        let at = Instant::now();
        let log = &mut logs[slot[outcome.id.0 as usize]].1;
        log.outcomes.push((outcome.classification, at));
    };
    let report = std::thread::scope(|scope| {
        let worker = scope.spawn(move || scheduler.run(classifier, ingest_rx, &done_tx));
        for chunk in window {
            let due = start + Duration::from_secs_f64(chunk.time_s - origin);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                match done_rx.recv_timeout(due - now) {
                    Ok(outcome) => absorb(&mut logs, outcome),
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            while let Ok(outcome) = done_rx.try_recv() {
                absorb(&mut logs, outcome);
            }
            let log = &mut logs[slot[chunk.read]].1;
            if !log.outcomes.is_empty() {
                continue;
            }
            lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let id = SessionId(chunk.read as u64);
            let _ = ingest_tx.send(Arrival::chunk(id, trace.samples(chunk).to_vec()));
            log.sent.push((chunk.end, due));
            if chunk.last {
                let _ = ingest_tx.send(Arrival::end(id));
            }
        }
        drop(ingest_tx);
        for outcome in done_rx.iter() {
            absorb(&mut logs, outcome);
        }
        worker.join().expect("scheduler thread")
    });
    Replay {
        logs,
        wall_s: start.elapsed().as_secs_f64(),
        lateness_ms,
        report,
    }
}

/// The flow cell's capture schedule: which channel captures a read when,
/// whether it is a target read (at the simulator's default viral
/// fraction), and how much signal it delivers. Fixed, so
/// that every seed offers the same arrival pattern; the workload seed draws
/// the reads' signal (see [`redraw_signal`]).
fn schedule(seconds: f64) -> ArrivalTrace {
    FlowCellSimulator::new(
        FlowCellConfig {
            channels: CHANNELS,
            duration_s: WARMUP_S + seconds,
            ..FlowCellConfig::default()
        },
        SCHEDULE_SEED,
    )
    .arrival_trace(&TraceConfig {
        target_genome: covid::genome(),
        background_genome: inputs::background(),
        signal: SquiggleSimulatorConfig::default(),
        model_seed: inputs::MODEL_SEED,
        chunk_samples: inputs::CHUNK_SAMPLES,
        max_decision_samples: inputs::PREFIX_SAMPLES,
    })
}

/// Replaces the signal of every read captured inside the window by a fresh
/// read of the same class drawn from the workload seed, at least as long as
/// the signal the schedule delivers for it.
fn redraw_signal(trace: &mut ArrivalTrace, seed: u64) {
    let genome = covid::genome();
    let background = inputs::background();
    // Fragments long enough to cover any budget-limited trace read.
    let fragment_bases = inputs::READ_BUDGET_SAMPLES * 2 / 9 + 50;
    let config = ReadSimulatorConfig {
        mean_length: fragment_bases as f64,
        length_sigma: 0.0,
        min_length: fragment_bases,
        max_length: fragment_bases,
    };
    let mut targets = ReadSimulator::new(&genome, ReadOrigin::Target, config, derive(seed, 51));
    let mut others = ReadSimulator::new(
        &background,
        ReadOrigin::Background,
        config,
        derive(seed, 52),
    );
    let mut squiggler = SquiggleSimulator::new(
        inputs::model(),
        SquiggleSimulatorConfig::default(),
        derive(seed, 53),
    );
    for read in trace.reads.iter_mut().filter(|r| r.start_s >= WARMUP_S) {
        let needed = read.available_samples();
        let sampler = if read.is_target {
            &mut targets
        } else {
            &mut others
        };
        read.squiggle = loop {
            let squiggle = squiggler.synthesize_read(&sampler.next_read());
            if squiggle.len() >= needed {
                break squiggle.prefix(needed);
            }
        };
    }
}

pub fn run(args: &Args) -> Report {
    let calibration = covid::calibration_reads();
    let check_targets = covid::check_targets(args.seed);
    let genome = covid::genome();
    let mut trace = schedule(args.seconds);
    redraw_signal(&mut trace, args.seed);
    let window: Vec<TraceChunk> = trace
        .chunks
        .iter()
        .filter(|c| trace.reads[c.read].start_s >= WARMUP_S)
        .copied()
        .collect();
    let (setup_s, filter, point) = covid::set_up(&genome, &calibration);
    eprintln!(
        "flowcell_paced: {} reads, {} chunks in the window; threshold {:.0}",
        window.iter().filter(|c| c.start == 0).count(),
        window.len(),
        point.threshold
    );
    // Warm-up: first touch of the reference and the session buffers.
    let _ = filter.classify(&calibration[0].squiggle);

    let mut checks = Checks::default();
    let (replay, mut metrics) = if args.trace {
        let spans = Spans::default();
        let traced = Traced::new(&filter, &spans);
        let mut counters = Window::open();
        let replay = replay(&traced, &trace, &window);
        counters.close();
        let mut tally = Tally::default();
        tally.absorb(&counters);
        let queue_wait = telemetry::snapshot()
            .histogram(SCHED_CHUNK_QUEUE_WAIT_NS)
            .map_or(0, |h| h.quantile(0.5));
        let plain = self::replay(&filter, &trace, &window);
        closed::check_trace(&mut checks, &tally, &spans, &spans, replay.wall_s);
        let split = latency_split(&replay, &spans);
        let negative = split.iter().filter(|s| s.wait_ms < 0.0).count();
        checks.check(
            "flowcell_paced deciding push within decision latency",
            negative == 0,
            || format!("{negative} decisions whose deciding push outlasts their latency"),
        );
        let metrics = per_layer(&replay, &plain, &spans, &tally, &split, queue_wait);
        (replay, metrics)
    } else {
        let replay = replay(&filter, &trace, &window);
        let mut metrics = end_to_end(&replay, &trace);
        metrics.push(Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        });
        (replay, metrics)
    };
    check(&mut checks, &filter, &trace, &replay, &check_targets);
    if args.trace {
        metrics.extend(crate::machine());
    }
    // A read without exactly one outcome is one failed decision.
    let failed_decisions = replay
        .logs
        .iter()
        .filter(|(_, log)| log.outcomes.len() != 1)
        .count() as u64;
    if failed_decisions > 0 {
        eprintln!("flowcell_paced: {failed_decisions} reads without exactly one outcome");
    }
    Report {
        decisions: replay.logs.len() as u64,
        failed_decisions,
        checks,
        metrics,
    }
}

fn end_to_end(replay: &Replay, trace: &ArrivalTrace) -> Vec<Metric> {
    let decided = replay.decided();
    let correct = decided
        .iter()
        .filter(|(read, outcome, _)| outcome.verdict.is_accept() == trace.reads[*read].is_target)
        .count();
    let samples: Vec<f64> = decided
        .iter()
        .map(|(_, o, _)| o.samples_consumed as f64)
        .collect();
    let latency: Vec<f64> = decided.iter().map(|&(_, _, ms)| ms).collect();
    report::end_to_end(correct, &samples, &latency, replay.wall_s)
}

/// One decision's latency, split at the deciding push.
struct Split {
    latency_ms: f64,
    /// The worker's deciding push plus `finalize`.
    deciding_ms: f64,
    /// The rest: flush waits, queueing and delivery.
    wait_ms: f64,
}

/// Splits each decision's latency into the deciding push, timed on the
/// worker by the traced classifier, and the wait around it.
fn latency_split(replay: &Replay, spans: &Spans) -> Vec<Split> {
    // Sessions open in first-chunk order on the single worker, so the k-th
    // session opened belongs to the k-th read of the window.
    let deciding: Vec<(u64, f64)> = spans
        .finished()
        .iter()
        .map(|s| (s.seq, s.deciding_ns as f64 / 1e6))
        .collect();
    replay
        .decided()
        .into_iter()
        .filter_map(|(read, _, latency_ms)| {
            let k = replay.logs.iter().position(|(r, _)| *r == read)? as u64;
            let &(_, deciding_ms) = deciding.iter().find(|(seq, _)| *seq == k)?;
            Some(Split {
                latency_ms,
                deciding_ms,
                wait_ms: latency_ms - deciding_ms,
            })
        })
        .collect()
}

fn per_layer(
    traced: &Replay,
    plain: &Replay,
    spans: &Spans,
    tally: &Tally,
    split: &[Split],
    queue_wait_ns: u64,
) -> Vec<Metric> {
    let decided = traced.decided();
    let n = decided.len().max(1) as f64;
    let column = |f: fn(&Split) -> f64| split.iter().map(f).collect::<Vec<f64>>();
    let p50 = quantile(&column(|s| s.latency_ms), 0.5);
    let deciding_p50 = quantile(&column(|s| s.deciding_ms), 0.5);
    let wait_p50 = quantile(&column(|s| s.wait_ms), 0.5);
    let plain_latency: Vec<f64> = plain.decided().iter().map(|&(_, _, ms)| ms).collect();
    let early = decided.iter().filter(|(_, o, _)| o.decided_early).count();
    let metric = |name, value, unit| Metric { name, value, unit };
    let mut metrics = layer_metrics(tally, decided.len(), early, spans, spans);
    metrics.extend([
        metric(
            "sf-sched.chunk_queue_wait_ms_p50",
            queue_wait_ns as f64 / 1e6,
            "ms",
        ),
        metric("sf-sched.decision_wait_ms_p50", wait_p50, "ms"),
        metric(
            "sf-sched.late_chunks_per_decision",
            traced.report.late_chunks as f64 / n,
            "count",
        ),
        metric(
            "sf-sched.busy_fraction",
            spans.busy_ns() as f64 / 1e9 / traced.wall_s,
            "fraction",
        ),
        metric(
            "bench.feeder.lateness_ms_p99",
            quantile(&traced.lateness_ms, 0.99),
            "ms",
        ),
        metric(
            "trace.attributed_fraction",
            (wait_p50 + deciding_p50) / p50,
            "fraction",
        ),
        metric(
            "trace.overhead_fraction",
            p50 / quantile(&plain_latency, 0.5) - 1.0,
            "fraction",
        ),
    ]);
    metrics
}

/// Correctness checks, run after the timed phase and computed apart from
/// it.
fn check(
    checks: &mut Checks,
    filter: &SquiggleFilter,
    trace: &ArrivalTrace,
    replay: &Replay,
    check_targets: &[LabelledRead],
) {
    covid::check_separation(
        checks,
        "flowcell_paced accept-rate separation",
        filter,
        check_targets,
        replay.logs.iter().filter_map(|(read, log)| {
            let (outcome, _) = log.outcomes.first()?;
            (!trace.reads[*read].is_target).then_some(outcome.verdict.is_accept())
        }),
    );

    // Outcomes match a sequential push_chunk/finalize drive of exactly the
    // chunks that were delivered, on a fixed subsample spread over the run.
    let step = (replay.logs.len() / PARITY_READS).max(1);
    for (read, log) in replay.logs.iter().step_by(step).take(PARITY_READS) {
        let Some(&(got, _)) = log.outcomes.first() else {
            continue;
        };
        let samples = trace.reads[*read].squiggle.samples();
        let mut session = filter.start_read();
        let mut start = 0;
        for &(end, _) in &log.sent {
            let _ = session.push_chunk(&samples[start..end]);
            start = end;
        }
        let want = session.finalize();
        checks.check(
            "flowcell_paced scheduled == sequential drive",
            got == want,
            || format!("read {read}: scheduled {got:?} vs sequential {want:?}"),
        );
    }
}
