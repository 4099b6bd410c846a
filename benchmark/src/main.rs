//! `scec-benchmark`: the repo benchmark. Drives the system only through
//! public functions of the scec crates, times those calls from outside,
//! checks every answer against a precomputed `A·x`, and prints every
//! metric by name and unit; the last line of standard output is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`).
//!
//! ```text
//! scec-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! scec-benchmark --all             [--seed N] [--seconds S] [--trace 0|1]
//! scec-benchmark --repeat <sets>   [--seed N] [--seconds S]
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how they interact.

mod aa;
mod backends;
mod harness;
mod layers;
mod spec;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use crate::spec::{END_TO_END, PER_LAYER, REFERENCE_SECONDS, WORKLOADS};
use crate::workloads::Params;

/// `--seconds` of the `--smoke` preset: every code path, in a few seconds.
const SMOKE_SECONDS: f64 = 0.3;

const USAGE: &str = "usage: scec-benchmark (--workload <name> | --all | --repeat <sets>) \
[--seed <u64>] [--seconds <s> | --smoke] [--trace <0|1>]";

/// Parsed command line.
pub struct Args {
    /// `--workload`, `--all` or `--repeat`.
    pub mode: Mode,
    /// `--seed`: every input of the run derives from it.
    pub seed: u64,
    /// `--seconds`: the measuring time the op counts are scaled for.
    pub seconds: f64,
    /// `--trace 1`: report the per-layer metrics instead.
    pub trace: bool,
}

/// What to run.
pub enum Mode {
    /// One workload in this process.
    Workload(&'static spec::Spec),
    /// Every workload, each in a child process (peak RSS is per workload).
    All,
    /// A/A: this many full sets, alternating sides.
    Repeat(usize),
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::All,
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
    };
    let mut mode = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = spec::find(name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?;
                mode = Some(Mode::Workload(spec));
            }
            "--all" => mode = Some(Mode::All),
            "--repeat" => {
                let sets: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if sets < 2 {
                    return Err("--repeat needs at least 2 sets".into());
                }
                mode = Some(Mode::Repeat(sets));
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--smoke" => args.seconds = SMOKE_SECONDS,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    args.mode = mode.ok_or(USAGE)?;
    Ok(args)
}

/// A JSON number with all its digits; non-finite values (a ratio over
/// zero) read 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    line.push_str("}}");
    line
}

/// Runs one workload in this process and prints its report; true when
/// every operation was verified and no gate was breached.
fn run_workload(spec: &'static spec::Spec, args: &Args) -> bool {
    let params = Params {
        spec,
        seed: args.seed,
        scale: args.seconds / REFERENCE_SECONDS,
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    harness::settle_allocator();
    match harness::pin_to_one_cpu() {
        Some(cpu) => println!("  pinned to cpu {cpu}"),
        None => println!("warning: could not pin to one cpu; timings will wander"),
    }
    let (tally, violations, metrics): (_, _, Vec<(&str, f64, &str)>) = if args.trace {
        let report = layers::run(&params);
        for warning in &report.warnings {
            println!("warning: {warning}");
        }
        let dir = std::path::PathBuf::from(
            std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
        )
        .join("scec-benchmark");
        let path = dir.join(format!("trace_{}.json", spec.name));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, &report.chrome_trace))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("warning: could not write {}: {e}", path.display()),
        }
        let metrics = report
            .metrics
            .iter()
            .zip(PER_LAYER)
            .map(|(&(name, value), (_, unit, _))| (name, value, unit))
            .collect();
        (report.tally, report.violations, metrics)
    } else {
        let out = workloads::run(&params, None, &mut |_, _| {});
        println!(
            "  {} set-ups, {} latency samples in {} blocks, {} throughput rounds",
            out.setups_s.len(),
            out.latency_samples(),
            out.latency_blocks.len(),
            out.rounds.len()
        );
        let per_round = |values: Vec<f64>| {
            let texts: Vec<String> = values.iter().map(|v| format!("{v:.0}")).collect();
            texts.join(" ")
        };
        println!(
            "  by the wall clock: throughput {:.4} 1/s, latency p50 {:.4} us, set-up {:.6} s",
            out.wall_throughput_qps(),
            out.wall_latency_p50_us(),
            out.wall_setup_s()
        );
        println!(
            "  round throughput, 1/s: {}",
            per_round(out.rounds.iter().map(backends::Round::qps).collect())
        );
        println!(
            "  latency block medians, ns: {}",
            per_round(out.block_medians_us().iter().map(|us| us * 1e3).collect())
        );
        println!(
            "  set-ups in run order, us: {}",
            per_round(out.setups_s.iter().map(|s| s * 1e6).collect())
        );
        println!(
            "  host slowness beside each round, permille of reference: {}",
            per_round(out.slowness.iter().map(|s| s * 1e3).collect())
        );
        let verified = (out.tally.attempted - out.tally.failed) as f64;
        println!(
            "  latency p99 (pooled, informational; per-layer runtime.latency_p99_us): {:.4} us",
            out.latency_pooled_us(0.99)
        );
        let values = [
            out.throughput_qps(),
            out.latency_p50_us(),
            out.setup_s(),
            verified / out.tally.attempted.max(1) as f64,
            out.cost_per_query,
            harness::peak_rss_mib(),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(e, value)| (e.name, value, e.unit))
            .collect();
        (out.tally, out.violations, metrics)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<44} {value:>18.4} {unit}");
    }
    for violation in &violations {
        println!("violation: {violation}");
    }
    let correct = tally.failed == 0 && violations.is_empty();
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.mode {
        Mode::Workload(spec) => run_workload(spec, &args),
        Mode::All => aa::run_all(&args),
        Mode::Repeat(sets) => aa::run_repeat(sets, &args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
