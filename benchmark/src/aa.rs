//! `--all` and the `--repeat N` A/A mode. Both run every workload in a
//! child process of this same binary (so peak RSS is per workload) and
//! read the result line back. A/A alternates the workload order from set
//! to set, splits the sets into two sides, and fails when the sides'
//! medians disagree beyond a metric's bound (0.1 % for the two counts):
//! it is the tool that says whether two sets of the same code agree.

use std::process::{Command, Stdio};

use crate::harness::median;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::Args;

/// The result line of one child run.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Reads `correct` and every `"name": {"value": v, …}` pair back out of
/// a result line this binary printed.
fn parse_result_line(line: &str) -> Option<ChildResult> {
    let correct = line.contains("\"correct\": true");
    let body = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut metrics = Vec::new();
    for entry in body.split("\"unit\"") {
        let Some(value_at) = entry.find("\": {\"value\": ") else {
            continue;
        };
        let name_start = entry[..value_at].rfind('"')? + 1;
        let value = entry[value_at + "\": {\"value\": ".len()..]
            .trim_end_matches([',', ' '])
            .parse()
            .ok()?;
        metrics.push((entry[name_start..value_at].to_string(), value));
    }
    Some(ChildResult { correct, metrics })
}

/// Runs one workload in a child process, echoing its output (indented
/// when `quiet` is false, dropped otherwise) and parsing its last line.
fn child(workload: &str, seed: u64, args: &Args, quiet: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !quiet {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = parse_result_line(last).ok_or_else(|| {
        format!(
            "{workload}: child printed no result line ({})",
            output.status
        )
    })?;
    if result.correct != output.status.success() {
        return Err(format!(
            "{workload}: result says correct={} but the child ended with {}",
            result.correct, output.status
        ));
    }
    Ok(result)
}

/// `--all`: every workload once, in order.
pub fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for spec in &WORKLOADS {
        match child(spec.name, args.seed, args, false) {
            Ok(result) => ok &= result.correct,
            Err(message) => {
                eprintln!("{message}");
                ok = false;
            }
        }
    }
    ok
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method).
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    [1, 2, 3].map(|q| {
        if n == 1 {
            return sorted[0];
        }
        let pos = (q * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    })
}

/// `--repeat N`: N sets of all workloads, even sets on side A and odd
/// sets on side B, each set under its own seed.
pub fn run_repeat(sets: usize, args: &Args) -> bool {
    if args.trace {
        eprintln!("--repeat compares end-to-end metrics; it runs with --trace 0");
        return false;
    }
    // values[workload][metric][side] = one value per set on that side.
    let mut values = vec![vec![[Vec::new(), Vec::new()]; END_TO_END.len()]; WORKLOADS.len()];
    let mut ok = true;
    for set in 0..sets {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let name = WORKLOADS[w].name;
            match child(name, args.seed + set as u64, args, true) {
                Ok(result) => {
                    ok &= result.correct;
                    let mut line = format!("set {set} {name}: correct={}", result.correct);
                    for (i, metric) in END_TO_END.iter().enumerate() {
                        match result.metrics.iter().find(|(n, _)| n == metric.name) {
                            Some(&(_, v)) => {
                                line.push_str(&format!(" {}={v}", metric.name));
                                values[w][i][set % 2].push(v);
                            }
                            None => {
                                eprintln!("{name}: result line lacks {}", metric.name);
                                ok = false;
                            }
                        }
                    }
                    println!("{line}");
                }
                Err(message) => {
                    eprintln!("{message}");
                    ok = false;
                }
            }
        }
    }
    if !ok {
        return false;
    }
    println!(
        "{:<26} {:<20} {:>14} {:>30} {:>14} {:>30} {:>8} {:>7}",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "worse",
        "bound"
    );
    for (w, spec) in WORKLOADS.iter().enumerate() {
        for (i, metric) in END_TO_END.iter().enumerate() {
            let [a, b] = &values[w][i];
            let (qa, qb) = (quartiles(a), quartiles(b));
            let (ma, mb) = (qa[1], qb[1]);
            // How much the worse side trails the better one, as a share of
            // the better side's median — the driver's rule, both ways round.
            let (better, worse) = if (ma > mb) == metric.higher_is_better {
                (ma, mb)
            } else {
                (mb, ma)
            };
            let gap = (better - worse).abs() / better.abs();
            let verdict = if gap > metric.bound { "DISAGREE" } else { "ok" };
            ok &= verdict == "ok";
            println!(
                "{:<26} {:<20} {:>14.4} {:>30} {:>14.4} {:>30} {:>7.2}% {:>6.1}% {verdict}",
                spec.name,
                metric.name,
                ma,
                format!("[{:.4}, {:.4}]", qa[0], qa[2]),
                mb,
                format!("[{:.4}, {:.4}]", qb[0], qb[2]),
                100.0 * gap,
                100.0 * metric.bound,
            );
        }
    }
    // The spread the driver checks: interquartile distance over the median
    // of all runs of one workload, sides pooled.
    println!("spread of all {sets} runs (IQR / median):");
    for (w, spec) in WORKLOADS.iter().enumerate() {
        let mut line = format!("  {:<26}", spec.name);
        for (i, metric) in END_TO_END.iter().enumerate() {
            let mut all: Vec<f64> = values[w][i].iter().flatten().copied().collect();
            let q = quartiles(&all);
            let med = median(&mut all);
            line.push_str(&format!(
                " {}={:.1}%",
                metric.name,
                100.0 * (q[2] - q[0]) / med
            ));
        }
        println!("{line}");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = crate::result_line(true, 10, 0, &[("a.b", 1.5, "ns"), ("c", 25396.25, "1/s")]);
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!(
            parsed.metrics,
            vec![("a.b".to_string(), 1.5), ("c".to_string(), 25396.25)]
        );
        assert!(
            !parse_result_line(&line.replace("true", "false"))
                .unwrap()
                .correct
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }
}
