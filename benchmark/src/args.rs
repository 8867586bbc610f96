//! Command line shared by the two measuring binaries:
//! `--workload <name> --seed <n> --seconds <n> --trace <0|1> [--smoke]`.

use crate::inputs::{workload, Workload, WORKLOADS};
use std::time::Duration;

/// Parsed arguments of one run.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of measuring, split between the phases of the run.
    pub seconds: f64,
    /// `--trace 1`: per-layer metrics; `--trace 0`: end-to-end metrics.
    pub trace: bool,
    /// Shrinks every phase to [`SMOKE_PHASE`]: for the crate's own tests.
    pub smoke: bool,
}

/// Length of every phase under `--smoke`.
pub const SMOKE_PHASE: Duration = Duration::from_millis(200);

impl Args {
    /// Parses `args` (without the program name).
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: &WORKLOADS[0],
            seed: 1,
            seconds: 12.0,
            trace: false,
            smoke: false,
        };
        let mut named = false;
        let mut args = args;
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                parsed.smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    parsed.workload = workload(&value).ok_or_else(|| {
                        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {value:?}; one of {names:?}")
                    })?;
                    named = true;
                }
                "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    parsed.seconds = value.parse().map_err(|_| bad())?;
                    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if !named {
            return Err("--workload <name> is required".to_string());
        }
        Ok(parsed)
    }

    /// Length of a phase that gets `share` of `--seconds`.
    pub fn phase(&self, share: f64) -> Duration {
        if self.smoke {
            SMOKE_PHASE
        } else {
            Duration::from_secs_f64(self.seconds * share)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_gate_command_line() {
        let args = parse(&[
            "--workload",
            "tiny_http",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload.name, "tiny_http");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        assert_eq!(args.phase(0.5), Duration::from_secs(5));
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "mss_http", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "mss_http", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "mss_http", "--frobnicate", "1"]).is_err());
        assert!(parse(&["--workload", "mss_http", "--seed"]).is_err());
    }
}
