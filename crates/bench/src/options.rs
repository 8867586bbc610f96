//! Tiny command-line option parser shared by the figure binaries
//! (kept dependency-free on purpose).

use crate::workload::RulesetChoice;

/// The largest `--mb`: one MiB more would make a 4 GiB trace, past the `u32`
/// candidate positions the engines record.
const MAX_TRACE_MIB: usize = 4095;

/// Options common to all figure binaries.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which ruleset scale to use (Snort-like S1, ET-open-like S2, or the
    /// full 20K set).
    pub ruleset: RulesetChoice,
    /// Trace size in MiB.
    pub trace_mib: usize,
    /// Measured repetitions per point (the paper uses 10; the default here is
    /// smaller so a full figure finishes quickly).
    pub runs: usize,
    /// Emit results as JSON instead of a text table.
    pub json: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            ruleset: RulesetChoice::S1,
            trace_mib: 8,
            runs: 3,
            json: false,
        }
    }
}

impl Options {
    /// Parses `--ruleset s1|s2|full`, `--mb N`, `--runs N`, `--json` from an
    /// argument iterator (unknown arguments cause an error message and exit).
    pub fn parse<I: Iterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut options = Options::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--ruleset" => {
                    let value = args.next().ok_or("--ruleset needs a value")?;
                    options.ruleset = match value.as_str() {
                        "s1" => RulesetChoice::S1,
                        "s2" => RulesetChoice::S2,
                        "full" => RulesetChoice::Full,
                        other => {
                            return Err(format!("unknown ruleset {other:?} (expected s1|s2|full)"))
                        }
                    };
                }
                "--mb" => {
                    let value = args.next().ok_or("--mb needs a value")?;
                    options.trace_mib = value
                        .parse()
                        .map_err(|_| format!("bad --mb value {value:?}"))?;
                }
                "--runs" => {
                    let value = args.next().ok_or("--runs needs a value")?;
                    options.runs = value
                        .parse()
                        .map_err(|_| format!("bad --runs value {value:?}"))?;
                }
                "--json" => options.json = true,
                "--help" | "-h" => {
                    return Err(
                        "usage: <figure> [--ruleset s1|s2|full] [--mb N] [--runs N] [--json]"
                            .to_string(),
                    )
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if options.trace_mib == 0 || options.runs == 0 {
            return Err("--mb and --runs must be positive".to_string());
        }
        if options.trace_mib > MAX_TRACE_MIB {
            return Err(format!(
                "--mb must be at most {MAX_TRACE_MIB}: the engines record candidate positions as u32, so a trace must stay under 4 GiB"
            ));
        }
        Ok(options)
    }

    /// Parses the process arguments, printing the error and exiting on
    /// failure. Convenience used by the binaries' `main`.
    pub fn from_env() -> Options {
        match Self::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_args() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.ruleset, RulesetChoice::S1);
        assert_eq!(o.trace_mib, 8);
        assert_eq!(o.runs, 3);
        assert!(!o.json);
    }

    #[test]
    fn parses_all_options() {
        let o = parse(&["--ruleset", "s2", "--mb", "64", "--runs", "10", "--json"]).unwrap();
        assert_eq!(o.ruleset, RulesetChoice::S2);
        assert_eq!(o.trace_mib, 64);
        assert_eq!(o.runs, 10);
        assert!(o.json);
    }

    #[test]
    fn rejects_unknown_arguments_and_bad_values() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--ruleset", "s9"]).is_err());
        assert!(parse(&["--mb", "abc"]).is_err());
        assert!(parse(&["--mb", "0"]).is_err());
        // A trace must stay within u32 candidate positions.
        assert_eq!(parse(&["--mb", "4095"]).unwrap().trace_mib, 4095);
        for too_big in ["4096", &usize::MAX.to_string()] {
            let error = parse(&["--mb", too_big]).unwrap_err();
            assert!(error.contains("4095") && error.contains("u32"), "{error}");
        }
    }
}
