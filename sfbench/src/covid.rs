//! `covid_stream`: reads from a SARS-CoV-2-length target and a human-like
//! background, streamed one at a time through one calibrated single-stage
//! hardware `SquiggleFilter`.

use crate::closed::{self, Decided};
use crate::inputs::{self, derive, LabelledRead};
use crate::report::{Checks, Metric, Report};
use crate::trace::{Spans, Traced};
use crate::{timed, timed_median, Args};
use squigglefilter::genome::random::covid_like_genome;
use squigglefilter::genome::Sequence;
use squigglefilter::pore_model::ReferenceSquiggle;
use squigglefilter::sdtw::{FilterConfig, OperatingPoint, SquiggleFilter};
use squigglefilter::sim::read::ReadSimulatorConfig;

/// Seed of the target genome (the reference is fixed; the workload seed
/// draws the reads).
const GENOME_SEED: u64 = 0;
/// Calibration reads per class (disjoint from the measured pool).
const CALIBRATION_READS: usize = 24;
/// Target reads streamed after the timed phase for the accept-rate check:
/// the timed stream, at the modeled viral fraction, holds too few.
const CHECK_TARGET_READS: usize = 40;
/// Reads of the fixed subsample compared against one-shot `classify`.
const ONE_SHOT_READS: usize = 4;
/// Reads of the subsample re-run on the scalar kernel backend.
const SCALAR_READS: usize = 1;
/// Floor on target accept rate minus background accept rate.
const SEPARATION_FLOOR: f64 = 0.25;

struct Inputs {
    genome: Sequence,
    calibration: Vec<LabelledRead>,
    pool: Vec<LabelledRead>,
    check_targets: Vec<LabelledRead>,
}

/// The fixed target reference.
pub fn genome() -> Sequence {
    covid_like_genome(GENOME_SEED)
}

fn class_reads(
    genome: &Sequence,
    target: Option<usize>,
    count: usize,
    seed: u64,
) -> Vec<LabelledRead> {
    inputs::reads(genome, target, ReadSimulatorConfig::viral(), count, seed)
}

/// Threshold-calibration reads, disjoint from every measured read.
pub fn calibration_reads() -> Vec<LabelledRead> {
    let seed = inputs::CALIBRATION_SEED;
    inputs::interleave(vec![
        class_reads(&genome(), Some(0), CALIBRATION_READS, derive(seed, 20)),
        class_reads(
            &inputs::background(),
            None,
            CALIBRATION_READS,
            derive(seed, 21),
        ),
    ])
}

/// Target reads for the accept-rate check, disjoint from every other read.
pub fn check_targets(seed: u64) -> Vec<LabelledRead> {
    class_reads(&genome(), Some(0), CHECK_TARGET_READS, derive(seed, 22))
}

fn inputs(seed: u64, len: usize) -> Inputs {
    let genome = genome();
    let pool = inputs::traffic(
        len,
        |n| class_reads(&genome, Some(0), n, derive(seed, 30)),
        |n| class_reads(&inputs::background(), None, n, derive(seed, 31)),
    );
    Inputs {
        genome,
        calibration: calibration_reads(),
        pool,
        check_targets: check_targets(seed),
    }
}

/// The program's set-up: the reference squiggle and an uncalibrated filter.
fn build(genome: &Sequence) -> (ReferenceSquiggle, SquiggleFilter) {
    let reference = ReferenceSquiggle::from_genome(&inputs::model(), genome);
    let scorer = SquiggleFilter::new(&reference, FilterConfig::hardware(f64::MAX));
    (reference, scorer)
}

/// The threshold that maximizes the expected number of correct decisions
/// at the modeled viral fraction (`tpr - w × fpr`, see
/// [`inputs::false_accept_weight`]) over the calibration reads' alignment
/// costs.
fn calibrate(scorer: &SquiggleFilter, calibration: &[LabelledRead]) -> OperatingPoint {
    let (mut target, mut background) = (Vec::new(), Vec::new());
    for read in calibration {
        if let Some(result) = scorer.score(&read.squiggle) {
            if read.is_target() {
                target.push(result.cost);
            } else {
                background.push(result.cost);
            }
        }
    }
    crate::youden_point(&target, &background, inputs::false_accept_weight())
}

/// The calibrated covid filter and its set-up time (see [`crate::timed_median`]).
pub fn set_up(
    genome: &Sequence,
    calibration: &[LabelledRead],
) -> (f64, SquiggleFilter, OperatingPoint) {
    let (build_s, (reference, scorer)) = timed_median(|| build(genome));
    let (calibrate_s, point) = timed(|| calibrate(&scorer, calibration));
    let (final_s, filter) =
        timed(|| SquiggleFilter::new(&reference, FilterConfig::hardware(point.threshold)));
    (build_s + calibrate_s + final_s, filter, point)
}

fn is_correct(read: &LabelledRead, outcome: &squigglefilter::sdtw::StreamClassification) -> bool {
    outcome.verdict.is_accept() == read.is_target()
}

/// The accept-rate check of the covid filter: the check reads, streamed
/// through `filter`, against the background accept rate of a timed phase
/// (`background` yields whether each background decision accepted).
pub fn check_separation(
    checks: &mut Checks,
    name: &str,
    filter: &SquiggleFilter,
    check_targets: &[LabelledRead],
    background: impl Iterator<Item = bool>,
) {
    let targets = check_targets
        .iter()
        .map(|read| closed::decide(filter, read).0.verdict.is_accept());
    crate::check_separation(checks, name, targets, background, SEPARATION_FLOOR);
}

pub fn run(args: &Args) -> Report {
    // Sized for ≈12 decisions/s per core; a faster run wraps around and
    // decides the pool's reads again (300 reads per 25 s, a whole number of
    // 100-read mix periods).
    let inputs = inputs(
        args.seed,
        ((args.seconds * 12.0) as usize).max(closed::ROUND),
    );
    let (setup_s, filter, point) = set_up(&inputs.genome, &inputs.calibration);
    eprintln!(
        "covid_stream: threshold {:.0} (calibration tpr {:.2} fpr {:.2}), {} reference samples",
        point.threshold,
        point.true_positive_rate,
        point.false_positive_rate,
        filter.reference_samples()
    );
    // Warm-up: first touch of the reference and the session buffers.
    let _ = closed::decide(&filter, &inputs.pool[0]);

    let mut checks = Checks::default();
    let (phase, metrics) = if args.trace {
        let spans = Spans::default();
        let traced = Traced::new(&filter, &spans);
        let run = closed::measure_traced(&filter, &traced, &inputs.pool, args.seconds);
        closed::check_trace(&mut checks, &run.tally, &spans, &spans, run.traced.wall_s);
        let mut metrics = closed::per_layer(&run, &spans, &spans);
        metrics.extend(crate::machine());
        (run.plain, metrics)
    } else {
        let phase = closed::measure(&filter, &inputs.pool, args.seconds);
        let mut metrics = closed::end_to_end(&phase, &inputs.pool, is_correct);
        metrics.push(Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        });
        (phase, metrics)
    };
    check(&mut checks, &filter, &inputs, &phase.decided);
    Report {
        decisions: phase.decided.len() as u64,
        failed_decisions: 0,
        checks,
        metrics,
    }
}

/// Correctness checks, run after the timed phase and computed apart from it.
fn check(checks: &mut Checks, filter: &SquiggleFilter, inputs: &Inputs, decided: &[Decided]) {
    check_separation(
        checks,
        "covid_stream accept-rate separation",
        filter,
        &inputs.check_targets,
        decided
            .iter()
            .filter(|d| !inputs.pool[d.read].is_target())
            .map(|d| d.outcome.verdict.is_accept()),
    );
    crate::check_outcomes_sane(checks, decided, &inputs.pool, inputs::PREFIX_SAMPLES);

    // Streamed outcomes equal one-shot classification on a fixed subsample.
    for read in 0..ONE_SHOT_READS.min(inputs.pool.len()) {
        let Some(d) = decided.iter().find(|d| d.read == read) else {
            continue;
        };
        let want = filter.classify(&inputs.pool[read].squiggle);
        // The verdict always matches. The alignment matches too unless the
        // sound early-reject bound stopped the DP short of the prefix.
        let full_dp = d.outcome.result.map(|r| r.query_samples) == Some(inputs::PREFIX_SAMPLES);
        let ok = d.outcome.verdict == want.verdict
            && (!full_dp || d.outcome.result == Some(want.result));
        checks.check("covid_stream streamed == one-shot classify", ok, || {
            format!("read {read}: streamed {:?} vs one-shot {want:?}", d.outcome)
        });
    }

    for read in inputs.pool.iter().take(SCALAR_READS) {
        crate::check_scalar(
            checks,
            "covid_stream vector == scalar kernel",
            &inputs.genome,
            filter,
            &read.squiggle,
        );
    }
}
