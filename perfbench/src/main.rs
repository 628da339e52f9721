//! Host performance ledger for the torus/ECC/RSA stack.
//!
//! ```text
//! perfbench --workload <paper_protocols|curves_256|model_replay>
//!           --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, a closed loop of rounds over the workload's
//! operations for `--seconds`; every operation's result is checked. With
//! `--trace 0` the last stdout line carries the end-to-end metrics, with
//! `--trace 1` the per-layer metrics (see README.md). The line before it
//! is the run record: machine, toolchain, seed and per-operation medians
//! with their tails.

mod curves;
mod layers;
mod oplog;
mod paper;
mod reference;
mod replay;
mod stats;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use field::OpCounter;
use rand::rngs::StdRng;
use rand::SeedableRng;

use oplog::OpLog;
use reference::Reference;

/// A workload: a fixed list of operation kinds, run one round at a time.
pub trait Workload {
    /// Names of the operation kinds, in the order rounds run them.
    fn kinds(&self) -> &'static [&'static str];
    /// The `Fp` operation counters of the workload's contexts.
    fn counters(&self) -> Vec<Arc<OpCounter>>;
    /// Runs every operation once, timing and checking each into `log`.
    fn round(&mut self, log: &mut OpLog);
}

/// The generator for one purpose (`tag`) of one seed.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// How a workload is built, and how often set-up is repeated to take
/// its median.
struct Spec {
    name: &'static str,
    /// The reference kernel latencies are normalised by.
    reference: Reference,
    setups: u64,
    warmup_rounds: usize,
    build: fn(u64) -> Box<dyn Workload>,
}

const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "paper_protocols",
        reference: Reference::new(20_000),
        setups: 13,
        warmup_rounds: 2,
        build: |seed| Box::new(paper::PaperProtocols::new(seed)),
    },
    Spec {
        name: "curves_256",
        reference: Reference::new(20_000),
        setups: 15,
        warmup_rounds: 4,
        build: |seed| Box::new(curves::Curves256::new(seed)),
    },
    Spec {
        name: "model_replay",
        reference: Reference::new(60_000),
        setups: 11,
        warmup_rounds: 0,
        build: |seed| Box::new(replay::ModelReplay::new(seed)),
    },
];

/// One reported metric.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric called `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds must be a whole number from 1 to 600")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = WORKLOADS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The CPU brand string from `cpuid`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let bytes: Vec<u8> = (0x8000_0002u32..=0x8000_0004)
                .flat_map(|leaf| {
                    let r = __cpuid(leaf);
                    [r.eax, r.ebx, r.ecx, r.edx]
                })
                .flat_map(u32::to_le_bytes)
                .collect();
            return String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
    }
    std::env::consts::ARCH.to_string()
}

fn ifma_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512ifma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// JSON string literal of `s`.
fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Builds the workload from `seed` and times the build, in seconds.
fn timed_setup(spec: &Spec, seed: u64) -> (Box<dyn Workload>, f64) {
    let start = Instant::now();
    let workload = (spec.build)(seed);
    (workload, start.elapsed().as_secs_f64())
}

/// Seeds of the repeated set-ups: the same panel in every run, so the
/// set-up median does not depend on how lucky one seed's key search is.
const SETUP_PANEL: u64 = 0x5E7_0000;

/// Runs rounds until `budget` has passed. Between rounds, it repeats the
/// set-up `spec.setups - 1` more times at evenly spaced moments, from the
/// fixed [`SETUP_PANEL`] seeds, so that neither one key search nor one
/// stretch of co-tenant load decides the set-up median.
fn run_rounds(
    spec: &Spec,
    workload: &mut dyn Workload,
    log: &mut OpLog,
    budget: Duration,
) -> Vec<f64> {
    let mut setups = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        workload.round(log);
        log.end_round();
        let rep = setups.len() as u64 + 1;
        if rep < spec.setups && start.elapsed() >= budget.mul_f64(rep as f64 / spec.setups as f64) {
            setups.push(timed_setup(spec, SETUP_PANEL + rep).1);
        }
    }
    setups
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.spec;
    let budget = Duration::from_secs(args.seconds);
    let (mut workload, first_setup) = timed_setup(spec, args.seed);
    let mut setups = vec![first_setup];
    let kinds = workload.kinds();

    let mut warm = OpLog::new(kinds, spec.reference, Vec::new());
    for _ in 0..spec.warmup_rounds {
        workload.round(&mut warm);
    }

    let (metrics, record, mut attempted, mut failed) = if args.trace {
        let (mut metrics, ledger_attempted, ledger_failed) = layers::run(args.seed);
        // Alternate untraced and traced rounds, so drift hits both alike.
        let mut plain = OpLog::new(kinds, spec.reference, Vec::new());
        let mut traced = OpLog::new(kinds, spec.reference, workload.counters());
        let start = Instant::now();
        while start.elapsed() < budget {
            workload.round(&mut plain);
            workload.round(&mut traced);
        }
        let overhead = traced.p50_geomean_us() / plain.p50_geomean_us() - 1.0;
        metrics.push(Metric::new("trace.overhead_pct", overhead * 100.0, "%"));
        metrics.push(Metric::new(
            "trace.fp_ops_per_span",
            traced.fp_ops_per_span(),
            "count",
        ));
        let attempted = ledger_attempted + plain.attempted + traced.attempted;
        let failed = ledger_failed + plain.failed + traced.failed;
        (metrics, traced.record(), attempted, failed)
    } else {
        let mut log = OpLog::new(kinds, spec.reference, Vec::new());
        setups.extend(run_rounds(spec, workload.as_mut(), &mut log, budget));
        let metrics = vec![
            Metric::new("setup_s", stats::median(&setups), "s"),
            Metric::new("op_p50_geomean_ref", log.p50_geomean_ref(), "ref"),
            Metric::new("round_ref", log.round_ref(), "ref"),
        ];
        (metrics, log.record(), log.attempted, log.failed)
    };

    // Warm-up rounds are checked like the others.
    attempted += warm.attempted;
    failed += warm.failed;
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cpu\": {}, \"avx512ifma\": {}, \"nproc\": {}, \"rustc\": {}, \"setup_s\": {}, \
         {}}}}}",
        quote(spec.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        quote(&cpu_model()),
        ifma_detected(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        quote(env!("PERFBENCH_RUSTC_VERSION")),
        stats::median(&setups),
        record
    );
    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
