//! `panel9_stream`: the 9-target pan-viral panel (4 viruses plus 5 strains
//! of the first, 2 kb references) streamed one read at a time through
//! `ShardedClassifier` sessions, one calibrated filter per target.

use crate::closed::{self, Decided};
use crate::inputs::{self, derive, LabelledRead};
use crate::report::{Checks, Metric, Report};
use crate::trace::{Spans, Traced};
use crate::{timed, timed_median, Args};
use squigglefilter::pore_model::ReferenceSquiggle;
use squigglefilter::sdtw::{
    FilterConfig, OperatingPoint, ReadClassifier, SquiggleFilter, StreamClassification, TargetId,
};
use squigglefilter::shard::{pan_viral_panel, PanelConfig, PanelTarget, ShardedClassifier};
use squigglefilter::sim::read::ReadSimulatorConfig;

/// Seed of the panel's genomes (the catalog is fixed; the workload seed
/// draws the reads).
const PANEL_SEED: u64 = 0;
/// Reference length of every panel target, bases.
const GENOME_BP: usize = 2_000;
/// Calibration reads per target, and background calibration reads.
const CALIBRATION_PER_TARGET: usize = 6;
const CALIBRATION_BACKGROUND: usize = 32;
/// Reads per target streamed after the timed phase for the accept-rate and
/// attribution checks: the timed stream, at the modeled viral fraction,
/// holds too few target reads.
const CHECK_PER_TARGET: usize = 5;
/// Check reads whose merged outcome is compared with each shard's own
/// filter (one read of each of the first six targets).
const MERGE_READS: usize = 6;
/// Reads of the subsample re-run on the scalar kernel backend.
const SCALAR_READS: usize = 1;
/// Floor on target accept rate minus background accept rate.
const SEPARATION_FLOOR: f64 = 0.10;
/// Floor on the share of accepted target reads attributed to their own
/// virus group.
const ATTRIBUTION_FLOOR: f64 = 0.9;

fn read_config() -> ReadSimulatorConfig {
    ReadSimulatorConfig {
        mean_length: 900.0,
        length_sigma: 0.3,
        min_length: 500,
        max_length: GENOME_BP,
    }
}

struct Inputs {
    panel: Vec<PanelTarget>,
    calibration: Vec<LabelledRead>,
    pool: Vec<LabelledRead>,
    check_targets: Vec<LabelledRead>,
}

fn inputs(seed: u64, len: usize) -> Inputs {
    let panel = pan_viral_panel(&PanelConfig {
        genome_length: GENOME_BP,
        viruses: 4,
        strains: 5,
        seed: PANEL_SEED,
    });
    let background = inputs::background();
    let targets = |seed: u64, count: usize, stream: u64| -> Vec<Vec<LabelledRead>> {
        panel
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let seed = derive(seed, stream + i as u64);
                inputs::reads(&t.genome, Some(i), read_config(), count, seed)
            })
            .collect()
    };
    let background_reads = |seed: u64, count: usize, stream: u64| {
        inputs::reads(
            &background,
            None,
            read_config(),
            count,
            derive(seed, stream),
        )
    };
    let mut calibration = inputs::interleave(targets(
        inputs::CALIBRATION_SEED,
        CALIBRATION_PER_TARGET,
        100,
    ));
    calibration.extend(background_reads(
        inputs::CALIBRATION_SEED,
        CALIBRATION_BACKGROUND,
        43,
    ));
    // The timed stream's target reads cycle through the panel's targets.
    let pool = inputs::traffic(
        len,
        |n| {
            let mut reads = inputs::interleave(targets(seed, n.div_ceil(panel.len()), 200));
            reads.truncate(n);
            reads
        },
        |n| background_reads(seed, n, 42),
    );
    let check_targets = inputs::interleave(targets(seed, CHECK_PER_TARGET, 300));
    Inputs {
        panel,
        calibration,
        pool,
        check_targets,
    }
}

fn group(panel: &[PanelTarget], target: usize) -> &str {
    &panel[target].group
}

/// Per-target thresholds that maximize `tpr - shards × w × fpr` on the
/// calibration reads, where `w` weighs false accepts for the modeled viral
/// fraction (see [`inputs::false_accept_weight`]) and the catalog width
/// enters because a background read is accepted if any shard accepts it,
/// so per-shard false accepts compound across the catalog. Shard `t`'s
/// positives are target `t`'s reads, its negatives the background reads
/// and the reads of every other virus group; other strains of the same
/// virus are neither.
fn calibrate(
    panel: &[PanelTarget],
    scorers: &[SquiggleFilter],
    calibration: &[LabelledRead],
) -> Vec<OperatingPoint> {
    scorers
        .iter()
        .enumerate()
        .map(|(t, scorer)| {
            let (mut pos, mut neg) = (Vec::new(), Vec::new());
            for read in calibration {
                let class = match read.target {
                    Some(r) if r == t => &mut pos,
                    Some(r) if group(panel, r) == group(panel, t) => continue,
                    _ => &mut neg,
                };
                if let Some(result) = scorer.score(&read.squiggle) {
                    class.push(result.cost);
                }
            }
            crate::youden_point(
                &pos,
                &neg,
                scorers.len() as f64 * inputs::false_accept_weight(),
            )
        })
        .collect()
}

fn build(panel: &[PanelTarget]) -> Vec<(ReferenceSquiggle, SquiggleFilter)> {
    let model = inputs::model();
    panel
        .iter()
        .map(|t| {
            let reference = ReferenceSquiggle::from_genome(&model, &t.genome);
            let scorer = SquiggleFilter::new(&reference, FilterConfig::hardware(f64::MAX));
            (reference, scorer)
        })
        .collect()
}

fn set_up(
    panel: &[PanelTarget],
    calibration: &[LabelledRead],
) -> (f64, ShardedClassifier<SquiggleFilter>) {
    let (build_s, built) = timed_median(|| build(panel));
    let scorers: Vec<SquiggleFilter> = built.iter().map(|(_, f)| f.clone()).collect();
    let (calibrate_s, points) = timed(|| calibrate(panel, &scorers, calibration));
    for (target, p) in panel.iter().zip(&points) {
        eprintln!(
            "panel9_stream: {} threshold {:.0} (calibration tpr {:.2} fpr {:.3})",
            target.name, p.threshold, p.true_positive_rate, p.false_positive_rate
        );
    }
    let (final_s, catalog) = timed(|| {
        ShardedClassifier::new(panel.iter().zip(&built).zip(&points).map(
            |((target, (reference, _)), point)| {
                (
                    target.name.clone(),
                    SquiggleFilter::new(reference, FilterConfig::hardware(point.threshold)),
                )
            },
        ))
    });
    (build_s + calibrate_s + final_s, catalog)
}

/// A decision is correct when the verdict matches the read's label and an
/// accepted target read is attributed to its own virus group.
fn is_correct(panel: &[PanelTarget], read: &LabelledRead, outcome: &StreamClassification) -> bool {
    match (read.target, outcome.verdict.is_accept()) {
        (None, accepted) => !accepted,
        (Some(_), false) => false,
        (Some(t), true) => outcome
            .target
            .is_some_and(|w| group(panel, w.index()) == group(panel, t)),
    }
}

pub fn run(args: &Args) -> Report {
    // Sized for ≈18 decisions/s per core; a faster run wraps around and
    // decides the pool's reads again.
    let inputs = inputs(
        args.seed,
        ((args.seconds * 18.0) as usize).max(closed::ROUND),
    );
    let (setup_s, catalog) = set_up(&inputs.panel, &inputs.calibration);
    let _ = closed::decide(&catalog, &inputs.pool[0]);

    let correct = |read: &LabelledRead, outcome: &StreamClassification| {
        is_correct(&inputs.panel, read, outcome)
    };
    let mut checks = Checks::default();
    let (phase, metrics) = if args.trace {
        let (shard_spans, filter_spans) = (Spans::default(), Spans::default());
        let traced_shards = ShardedClassifier::new(catalog.shards().iter().map(|shard| {
            (
                shard.name().to_string(),
                Traced::new(shard.classifier(), &filter_spans),
            )
        }));
        let traced = Traced::new(&traced_shards, &shard_spans);
        let run = closed::measure_traced(&catalog, &traced, &inputs.pool, args.seconds);
        closed::check_trace(
            &mut checks,
            &run.tally,
            &shard_spans,
            &filter_spans,
            run.traced.wall_s,
        );
        let mut metrics = closed::per_layer(&run, &shard_spans, &filter_spans);
        metrics.extend(crate::machine());
        (run.plain, metrics)
    } else {
        let phase = closed::measure(&catalog, &inputs.pool, args.seconds);
        let mut metrics = closed::end_to_end(&phase, &inputs.pool, correct);
        metrics.push(Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        });
        (phase, metrics)
    };
    check(&mut checks, &catalog, &inputs, &phase.decided);
    Report {
        decisions: phase.decided.len() as u64,
        failed_decisions: 0,
        checks,
        metrics,
    }
}

/// Correctness checks, run after the timed phase and computed apart from it.
fn check(
    checks: &mut Checks,
    catalog: &ShardedClassifier<SquiggleFilter>,
    inputs: &Inputs,
    decided: &[Decided],
) {
    let panel = &inputs.panel;
    // The check reads, streamed through the catalog as the timed reads were.
    let check_decided: Vec<(usize, StreamClassification)> = inputs
        .check_targets
        .iter()
        .map(|read| {
            let target = read.target.expect("check reads are target reads");
            (target, closed::decide(catalog, read).0)
        })
        .collect();
    crate::check_separation(
        checks,
        "panel9_stream accept-rate separation",
        check_decided.iter().map(|(_, o)| o.verdict.is_accept()),
        decided
            .iter()
            .filter(|d| !inputs.pool[d.read].is_target())
            .map(|d| d.outcome.verdict.is_accept()),
        SEPARATION_FLOOR,
    );
    crate::check_outcomes_sane(
        checks,
        decided,
        &inputs.pool,
        catalog.max_decision_samples(),
    );

    // Attribution over the check reads and the timed stream's target reads.
    let accepted_targets: Vec<(usize, StreamClassification)> = check_decided
        .iter()
        .copied()
        .chain(
            decided
                .iter()
                .filter_map(|d| inputs.pool[d.read].target.map(|t| (t, d.outcome))),
        )
        .filter(|(_, o)| o.verdict.is_accept())
        .collect();
    let own_group = accepted_targets
        .iter()
        .filter(|(t, o)| {
            o.target
                .is_some_and(|w| group(panel, w.index()) == group(panel, *t))
        })
        .count();
    let share = own_group as f64 / accepted_targets.len().max(1) as f64;
    eprintln!(
        "panel9_stream attribution: {own_group} of {} accepted target reads in their own group",
        accepted_targets.len()
    );
    checks.check(
        "panel9_stream accepted target reads land in their own group",
        !accepted_targets.is_empty() && share >= ATTRIBUTION_FLOOR,
        || format!("{own_group} of {}", accepted_targets.len()),
    );

    // The merged verdict is the OR of each shard's own one-shot verdict; an
    // accepted read's winner is the cheapest accepting shard (ties to the
    // lower target id).
    for (read, (_, merged)) in inputs
        .check_targets
        .iter()
        .zip(&check_decided)
        .take(MERGE_READS)
    {
        let own: Vec<_> = catalog
            .shards()
            .iter()
            .map(|s| s.classifier().classify(&read.squiggle))
            .collect();
        let any_accept = own.iter().any(|c| c.verdict.is_accept());
        let winner = own
            .iter()
            .enumerate()
            .filter(|(_, c)| c.verdict.is_accept())
            .min_by(|(i, a), (j, b)| a.result.cost.total_cmp(&b.result.cost).then(i.cmp(j)))
            .map(|(i, _)| TargetId(i as u32));
        let ok =
            merged.verdict.is_accept() == any_accept && (!any_accept || merged.target == winner);
        checks.check(
            "panel9_stream merged == OR/argmin of shard filters",
            ok,
            || format!("merged {merged:?} vs own accept {any_accept} winner {winner:?}"),
        );
    }

    // The vector kernel matches the scalar oracle on every shard.
    for read in inputs.check_targets.iter().take(SCALAR_READS) {
        for (target, shard) in panel.iter().zip(catalog.shards()) {
            crate::check_scalar(
                checks,
                "panel9_stream vector == scalar kernel",
                &target.genome,
                shard.classifier(),
                &read.squiggle,
            );
        }
    }
}
