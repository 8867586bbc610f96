//! Runs sets of benchmark runs and compares saved sets.
//!
//! `suite [--runs N] [--seed S] [--seconds X] [--smoke] [--out FILE]` runs,
//! `N` times, every workload untraced (`e2e`) and then, once, every workload
//! traced (`layers`), each as a child process; prints every metric by name
//! with its unit; and saves the set as JSON. A traced run that fails, or
//! cannot start because the `layers` binary did not build, leaves the
//! end-to-end numbers standing and is reported as a missing per-layer block;
//! the exit status follows the end-to-end runs.
//!
//! `compare A B` prints, per workload × end-to-end metric, both medians with
//! quartiles, the change against the metric's bound in `BENCHMARK.json`, and
//! a verdict.

use mpm_benchmark::inputs::WORKLOADS;
use mpm_benchmark::json::{self, Value};
use mpm_benchmark::stats::Quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("suite") => suite(&args[1..]),
        _ => suite(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("suite: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs one child binary; echoes its output; returns whether it exited with
/// 0, its last line of standard output and its wall time. A child that
/// cannot be started or read counts as one that failed.
fn run_child(binary: &str, args: &[String]) -> (bool, String, f64) {
    let started = Instant::now();
    let mut last = String::new();
    let mut run = || -> std::io::Result<bool> {
        let path = std::env::current_exe()?.with_file_name(binary);
        let mut child = Command::new(path)
            .args(args)
            .stdout(Stdio::piped())
            .spawn()?;
        // A line that cannot be read ends the reading and closes the pipe;
        // the child is waited for either way.
        let stdout = BufReader::new(child.stdout.take().expect("piped"));
        for line in stdout.lines().map_while(Result::ok) {
            if !line.starts_with('{') {
                println!("  {line}");
            }
            last = line;
        }
        Ok(child.wait()?.success())
    };
    let ok = run().unwrap_or_else(|e| {
        eprintln!("suite: cannot run the {binary} binary: {e}");
        false
    });
    (ok, last, started.elapsed().as_secs_f64())
}

fn suite(args: &[String]) -> Result<bool, String> {
    let (mut runs, mut seed) = (1u64, 1u64);
    let mut pass_through: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--runs" => runs = value()?.parse().map_err(|_| "bad --runs".to_string())?,
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => pass_through.extend([flag.clone(), value()?]),
            "--smoke" => pass_through.push(flag.clone()),
            "--out" => out_path = Some(value()?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let mut records = String::new();
    let mut one = |binary: &str, workload: &str, trace: u8| -> bool {
        let mut child_args = vec![
            "--workload".to_string(),
            workload.to_string(),
            "--seed".to_string(),
            seed.to_string(),
            "--trace".to_string(),
            trace.to_string(),
        ];
        child_args.extend(pass_through.iter().cloned());
        println!("{workload} seed {seed} trace {trace}:");
        let (ok, last, wall) = run_child(binary, &child_args);
        let result = match json::parse(&last) {
            Ok(value) if value.get("metrics").is_some() => {
                // The traced binary lists its metrics itself, in waterfall
                // order; the gate's five are listed here.
                if trace == 0 {
                    print_metrics(&value);
                }
                last
            }
            _ => "null".to_string(),
        };
        if !records.is_empty() {
            records.push_str(",\n");
        }
        write!(
            records,
            "  {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"ok\": {ok}, \"wall_s\": {wall:.3}, \"result\": {result}}}"
        )
        .expect("writing to a String cannot fail");
        ok
    };
    let mut all_ok = true;
    for _ in 0..runs {
        for w in &WORKLOADS {
            all_ok &= one("e2e", w.name, 0);
        }
    }
    for w in &WORKLOADS {
        if !one("layers", w.name, 1) {
            println!(
                "  {}: per-layer block MISSING (the traced run failed); end-to-end numbers stand",
                w.name
            );
        }
    }
    let path = match out_path {
        Some(path) => PathBuf::from(path),
        None => {
            std::fs::create_dir_all("benchmark/out").map_err(|e| e.to_string())?;
            let stamp = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_err(|e| e.to_string())?
                .as_secs();
            PathBuf::from(format!("benchmark/out/suite-{stamp}.json"))
        }
    };
    std::fs::write(&path, format!("{{\"runs\": [\n{records}\n]}}\n")).map_err(|e| e.to_string())?;
    println!("saved {}", path.display());
    Ok(all_ok)
}

fn print_metrics(result: &Value) {
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        return;
    };
    for (name, metric) in metrics {
        let value = metric
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("    {name:<44} {value:>16.6} {unit}");
    }
}

/// `values[workload][metric]` = that metric's value in every untraced run.
type Sets = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(path: &str) -> Result<Sets, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut sets = Sets::new();
    for run in doc.get("runs").map(Value::items).unwrap_or_default() {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(Value::Object(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            continue;
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                sets.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(sets)
}

/// Set `b` against set `a` of one metric on one workload, by the rule of the
/// choosing-metrics guide: a gain needs every run of `b` better than every
/// run of `a` and medians further apart than `a`'s own quartiles; a spread
/// wider than the bound resolves nothing unless every run of `b` is worse
/// than every run of `a`; otherwise the medians decide against the bound.
fn verdict(a: &[f64], b: &[f64], bound: f64, higher_better: bool) -> &'static str {
    let (qa, qb) = (Quartiles::of(a), Quartiles::of(b));
    let change = (qb.median - qa.median) / qa.median.abs();
    let worse_by = if higher_better { -change } else { change };
    let better = |x: f64, y: f64| if higher_better { x > y } else { x < y };
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let b_always_worse = b.iter().all(|&x| a.iter().all(|&y| better(y, x)));
    if b_always_better && (qb.median - qa.median).abs() > qa.q3 - qa.q1 {
        "better"
    } else if qa.spread().max(qb.spread()) > bound && !b_always_worse {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "same"
    }
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <a.json> <b.json>".to_string());
    };
    let (a, b) = (load_set(a_path)?, load_set(b_path)?);
    let contract =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let contract = json::parse(&contract)?;
    let mut acceptable = true;
    println!(
        "{:<13} {:<15} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "change", "bound"
    );
    for workload in WORKLOADS.iter().map(|w| w.name) {
        for metric in contract
            .get("end_to_end")
            .map(Value::items)
            .unwrap_or_default()
        {
            let name = metric.get("name").and_then(Value::as_str).unwrap_or("?");
            let bound = metric.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let higher_better = metric.get("better").and_then(Value::as_str) == Some("higher");
            let (Some(av), Some(bv)) = (
                a.get(workload).and_then(|m| m.get(name)),
                b.get(workload).and_then(|m| m.get(name)),
            ) else {
                println!("{workload:<13} {name:<15} missing from one of the sets");
                acceptable = false;
                continue;
            };
            let (qa, qb) = (Quartiles::of(av), Quartiles::of(bv));
            let change = (qb.median - qa.median) / qa.median.abs();
            let verdict = verdict(av, bv, bound, higher_better);
            acceptable &= matches!(verdict, "same" | "better");
            println!(
                "{workload:<13} {name:<15} {:>12.5} {:>25} {:>12.5} {:>25} {:>+7.2}% {:>5.0}%  {verdict}",
                qa.median,
                format!("[{:.5}, {:.5}]", qa.q1, qa.q3),
                qb.median,
                format!("[{:.5}, {:.5}]", qb.q1, qb.q3),
                change * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    fn scaled(by: f64) -> Vec<f64> {
        STEADY.iter().map(|v| v * by).collect()
    }

    #[test]
    fn medians_within_the_bound_are_the_same() {
        assert_eq!(verdict(&STEADY, &STEADY, 0.05, true), "same");
        // 1% apart and overlapping: neither a gain nor a regression.
        assert_eq!(verdict(&STEADY, &scaled(1.01), 0.05, true), "same");
        assert_eq!(verdict(&STEADY, &scaled(0.99), 0.05, false), "same");
    }

    #[test]
    fn a_gain_needs_every_run_better_and_more_than_the_spread() {
        assert_eq!(verdict(&STEADY, &scaled(1.10), 0.05, true), "better");
        assert_eq!(verdict(&STEADY, &scaled(0.90), 0.05, false), "better");
        // One run of b inside a's range: no gain, whatever the medians say.
        let mut b = scaled(1.10);
        b[0] = 100.0;
        assert_eq!(verdict(&STEADY, &b, 0.10, true), "same");
    }

    #[test]
    fn a_median_beyond_the_bound_on_the_bad_side_is_worse() {
        assert_eq!(verdict(&STEADY, &scaled(0.90), 0.05, true), "worse");
        assert_eq!(verdict(&STEADY, &scaled(1.10), 0.05, false), "worse");
        // Inside the bound it is not, even when every run is worse.
        assert_eq!(verdict(&STEADY, &scaled(0.97), 0.05, true), "same");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_sets_are_disjoint() {
        let noisy = [100.0, 120.0, 80.0, 110.0, 90.0];
        assert_eq!(verdict(&noisy, &STEADY, 0.05, true), "unresolved");
        assert_eq!(verdict(&STEADY, &noisy, 0.05, true), "unresolved");
        // Every run of b below every run of a: worse, however wide b is.
        let far_below: Vec<f64> = noisy.iter().map(|v| v * 0.5).collect();
        assert_eq!(verdict(&STEADY, &far_below, 0.05, true), "worse");
        // ... and a gain is a gain, however wide b is.
        let far_above: Vec<f64> = noisy.iter().map(|v| v * 2.0).collect();
        assert_eq!(verdict(&STEADY, &far_above, 0.05, true), "better");
    }
}
