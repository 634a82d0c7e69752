//! End-to-end and per-layer benchmark of the SquiggleFilter workspace.
//!
//! ```text
//! sfbench --workload <covid_stream|panel9_stream|flowcell_paced>
//!         --seed <n> --seconds <s> --trace <0|1>
//! sfbench --quick [--seed <n>]
//! ```
//!
//! Each run makes its inputs from `--seed`, sets the program up, measures
//! one timed phase of `--seconds`, checks the outputs, and prints one JSON
//! object as the last line of stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `--quick` runs all
//! three workloads at reduced size with every check on and exits non-zero
//! if any check fails. See README.md for the workloads and metrics.

mod closed;
mod covid;
mod flowcell;
mod inputs;
mod panel;
mod report;
mod stats;
mod trace;

use closed::Decided;
use inputs::LabelledRead;
use report::{Checks, Metric, Report};
use squigglefilter::genome::Sequence;
use squigglefilter::pore_model::ReferenceSquiggle;
use squigglefilter::sdtw::{calibrate_threshold, KernelBackend, OperatingPoint, SquiggleFilter};
use squigglefilter::squiggle::RawSquiggle;
use std::process::ExitCode;
use std::time::Instant;

/// Reference and filter construction is repeated this many times per run
/// and its median counted into `setup_s`; threshold-calibration scoring,
/// which is seconds of kernel work, is timed once.
const SETUP_REPEATS: usize = 3;

const WORKLOADS: [&str; 3] = ["covid_stream", "panel9_stream", "flowcell_paced"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

const USAGE: &str = "usage: sfbench --workload <covid_stream|panel9_stream|flowcell_paced> \
--seed <n> --seconds <s> --trace <0|1>\n       sfbench --quick [--seed <n>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick {
        if args.seconds <= 0.0 {
            args.seconds = 10.0;
        }
        return Ok(args);
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Report {
    match args.workload.as_str() {
        "covid_stream" => covid::run(args),
        "panel9_stream" => panel::run(args),
        "flowcell_paced" => flowcell::run(args),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.quick {
        let mut failed = 0;
        for workload in WORKLOADS {
            let report = run_workload(&Args {
                workload: workload.to_string(),
                ..args.clone()
            });
            println!("{workload}: {}", report.to_json());
            failed += report.failed();
        }
        return if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let report = run_workload(&args);
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

/// Times one call, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let result = std::hint::black_box(f());
    (t.elapsed().as_secs_f64(), result)
}

/// Runs a set-up construction [`SETUP_REPEATS`] times and returns the
/// median wall time in seconds with the last construction's result.
pub fn timed_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (s, result) = timed(&mut f);
        times.push(s);
        last = Some(result);
    }
    (
        stats::median(&times),
        last.expect("SETUP_REPEATS is positive"),
    )
}

/// The calibration operating point that maximizes `tpr - fpr_weight × fpr`
/// over the program's threshold sweep (ties go to the lower threshold).
/// Unlike best F1, this never settles on accept-everything, which best F1
/// does on a balanced calibration set whose classes overlap.
pub fn youden_point(target: &[f64], background: &[f64], fpr_weight: f64) -> OperatingPoint {
    let gain = |p: &OperatingPoint| p.true_positive_rate - fpr_weight * p.false_positive_rate;
    calibrate_threshold(target, background)
        .points
        .into_iter()
        .max_by(|a, b| {
            gain(a)
                .total_cmp(&gain(b))
                .then(b.threshold.total_cmp(&a.threshold))
        })
        .expect("the sweep has at least one point")
}

/// Target reads must be accepted clearly more often than background reads.
/// `targets` and `background` yield whether each decided read of that class
/// was accepted.
pub fn check_separation(
    checks: &mut Checks,
    name: &str,
    targets: impl Iterator<Item = bool>,
    background: impl Iterator<Item = bool>,
    floor: f64,
) {
    let (tpr, n_target) = accept_rate(targets);
    let (fpr, n_background) = accept_rate(background);
    eprintln!(
        "{name}: target accept rate {tpr:.3} ({n_target} reads), \
         background accept rate {fpr:.3} ({n_background} reads)"
    );
    checks.check(
        name,
        n_target > 0 && n_background > 0 && tpr - fpr >= floor,
        || format!("tpr {tpr:.3} - fpr {fpr:.3} below floor {floor}"),
    );
}

/// The share of `true` among `accepts`, and how many there were.
fn accept_rate(accepts: impl Iterator<Item = bool>) -> (f64, usize) {
    let (mut n, mut accepted) = (0usize, 0usize);
    for a in accepts {
        n += 1;
        accepted += usize::from(a);
    }
    (accepted as f64 / n.max(1) as f64, n)
}

/// The vector kernel matches the scalar oracle bit for bit: `filter` and a
/// copy switched to `KernelBackend::Scalar` classify `read` alike.
pub fn check_scalar(
    checks: &mut Checks,
    name: &str,
    genome: &Sequence,
    filter: &SquiggleFilter,
    read: &RawSquiggle,
) {
    let reference = ReferenceSquiggle::from_genome(&inputs::model(), genome);
    let mut config = *filter.config();
    config.sdtw = config.sdtw.with_backend(KernelBackend::Scalar);
    let want = SquiggleFilter::new(&reference, config).classify(read);
    let got = filter.classify(read);
    checks.check(name, got == want, || {
        format!("vector {got:?} vs scalar {want:?}")
    });
}

/// Every outcome is a resolved decision on at least one and at most
/// `budget` of the samples its read delivered.
pub fn check_outcomes_sane(
    checks: &mut Checks,
    decided: &[Decided],
    pool: &[LabelledRead],
    budget: usize,
) {
    let bad = decided.iter().find(|d| {
        let len = pool[d.read].squiggle.len();
        d.outcome.samples_consumed == 0 || d.outcome.samples_consumed > len.min(budget)
    });
    checks.check("one sane outcome per read", bad.is_none(), || {
        format!("{bad:?}")
    });
}

/// The machine the figures were taken on (reported with the traced run;
/// the CPU model, which is not a number, goes to stderr).
pub fn machine() -> Vec<Metric> {
    let avx2 = avx2();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "machine: {cores} cores, {}, avx2 {avx2}, telemetry {}",
        cpu_model(),
        trace::telemetry_enabled()
    );
    vec![
        Metric {
            name: "machine.cores",
            value: cores as f64,
            unit: "count",
        },
        Metric {
            name: "machine.avx2",
            value: f64::from(u8::from(avx2)),
            unit: "bool",
        },
    ]
}

#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    std::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2() -> bool {
    false
}

/// The CPU brand string from CPUID leaves 0x8000_0002..=0x8000_0004.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown CPU".to_string();
    }
    let bytes: Vec<u8> = (0x8000_0002u32..=0x8000_0004)
        .flat_map(|leaf| {
            let r = __cpuid(leaf);
            [r.eax, r.ebx, r.ecx, r.edx]
        })
        .flat_map(u32::to_le_bytes)
        .collect();
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown CPU".to_string()
}
