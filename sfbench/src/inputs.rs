//! Seeded input synthesis. Every input a workload feeds the program is made
//! here from the workload seed; the pore model has a seed of its own.

use squigglefilter::genome::random::human_like_background;
use squigglefilter::genome::Sequence;
use squigglefilter::pore_model::KmerModel;
use squigglefilter::sim::read::{ReadOrigin, ReadSimulator, ReadSimulatorConfig};
use squigglefilter::sim::squiggle_sim::{SquiggleSimulator, SquiggleSimulatorConfig};
use squigglefilter::sim::FlowCellConfig;
use squigglefilter::squiggle::RawSquiggle;

/// Seed of the synthetic R9.4 pore model, shared by signal synthesis and
/// the reference squiggles. Fixed, and separate from the workload seed.
pub const MODEL_SEED: u64 = 0;

/// Seed of the threshold-calibration reads. Calibration belongs to the
/// deployment, like the references: every workload seed runs against the
/// same thresholds, and the workload seed draws only the traffic and the
/// check reads, on streams disjoint from these.
pub const CALIBRATION_SEED: u64 = 0;

/// Seed and length of the human-like background contig background reads
/// are drawn from (fixed, like the target references).
const BACKGROUND_SEED: u64 = 1;
const BACKGROUND_BP: usize = 400_000;

/// Raw samples per Read Until chunk (≈ 0.1 s of signal at 4 kHz).
pub const CHUNK_SAMPLES: usize = 400;

/// The filter's decision prefix, in raw samples.
pub const PREFIX_SAMPLES: usize = 2_000;

/// Signal synthesized per read: the decision prefix plus headroom, so every
/// read long enough to be decided mid-stream is.
pub const READ_BUDGET_SAMPLES: usize = 3_200;

/// The background contig.
pub fn background() -> Sequence {
    human_like_background(BACKGROUND_SEED, BACKGROUND_BP)
}

/// The pore model every workload uses.
pub fn model() -> KmerModel {
    KmerModel::synthetic_r94(MODEL_SEED)
}

/// Derives the seed of one independent input stream from the workload
/// seed (SplitMix64 finalizer over the pair).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One synthesized read and what the simulator knows about it.
#[derive(Debug, Clone)]
pub struct LabelledRead {
    pub squiggle: RawSquiggle,
    /// Index of the target the read was drawn from; `None` for background.
    pub target: Option<usize>,
}

impl LabelledRead {
    pub fn is_target(&self) -> bool {
        self.target.is_some()
    }
}

/// Draws `count` reads from `genome` and keeps the first
/// [`READ_BUDGET_SAMPLES`] of each read's signal (synthesized over the
/// whole read, so per-read drift is what the full read would carry).
pub fn reads(
    genome: &Sequence,
    target: Option<usize>,
    config: ReadSimulatorConfig,
    count: usize,
    seed: u64,
) -> Vec<LabelledRead> {
    let origin = if target.is_some() {
        ReadOrigin::Target
    } else {
        ReadOrigin::Background
    };
    let mut sampler = ReadSimulator::new(genome, origin, config, derive(seed, 1));
    let mut squiggler =
        SquiggleSimulator::new(model(), SquiggleSimulatorConfig::default(), derive(seed, 2));
    sampler
        .simulate(count)
        .into_iter()
        .map(|read| LabelledRead {
            squiggle: squiggler.synthesize_prefix(&read.sequence, READ_BUDGET_SAMPLES),
            target,
        })
        .collect()
}

/// Share of reads that are target reads in every timed stream: the viral
/// fraction the simulator models by default (`FlowCellConfig::default`).
pub fn target_fraction() -> f64 {
    FlowCellConfig::default().target_fraction
}

/// Weight of a false accept against a missed target read at which a
/// threshold maximizes the expected number of correct decisions on traffic
/// with [`target_fraction`] target reads: `(1 - f) / f`.
pub fn false_accept_weight() -> f64 {
    let f = target_fraction();
    (1.0 - f) / f
}

/// Whether position `i` of a timed stream holds a target read: one position
/// in every `1 / f` (the middle one), so any stretch of the stream carries
/// the modeled viral fraction.
pub fn is_target_slot(i: usize) -> bool {
    let period = (1.0 / target_fraction()).round().max(1.0) as usize;
    i % period == period / 2
}

/// A timed stream of `len` reads at the modeled viral fraction: target reads
/// at the [`is_target_slot`] positions, drawn in turn from `targets`, and
/// background reads everywhere else. `targets(k)` and `background(k)` make
/// `k` reads of their class.
pub fn traffic(
    len: usize,
    targets: impl FnOnce(usize) -> Vec<LabelledRead>,
    background: impl FnOnce(usize) -> Vec<LabelledRead>,
) -> Vec<LabelledRead> {
    let n_targets = (0..len).filter(|&i| is_target_slot(i)).count();
    let mut targets = targets(n_targets).into_iter();
    let mut background = background(len - n_targets).into_iter();
    (0..len)
        .map(|i| {
            let class = if is_target_slot(i) {
                &mut targets
            } else {
                &mut background
            };
            class.next().expect("one read made per slot")
        })
        .collect()
}

/// Interleaves per-class read lists round-robin (one read of each list per
/// turn), so any contiguous run of reads mixes the classes evenly.
pub fn interleave(lists: Vec<Vec<LabelledRead>>) -> Vec<LabelledRead> {
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    let mut iters: Vec<_> = lists.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    for _ in 0..longest {
        for it in &mut iters {
            out.extend(it.next());
        }
    }
    out
}
