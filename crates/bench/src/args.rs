//! Minimal command-line argument handling shared by the harness binaries.

/// Common harness options.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Per-solver (or per-cell) wall-clock limit in seconds.
    pub time_limit: f64,
    /// Number of repeated runs to average (figures).
    pub runs: usize,
    /// Output horizon scale for figures (fraction of `time_limit` sampled).
    pub samples: usize,
    /// Random seed base.
    pub seed: u64,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self {
            time_limit: 10.0,
            runs: 3,
            samples: 20,
            seed: 42,
        }
    }
}

impl HarnessArgs {
    /// Parses `--time-limit`, `--runs`, `--samples` and `--seed` from an
    /// iterator of arguments (unknown arguments are ignored so binaries can
    /// add their own). A value that does not parse — or, for
    /// `--time-limit`, is negative, NaN or infinite — keeps its default.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I, defaults: HarnessArgs) -> Self {
        let mut out = defaults;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                // A limit must be a finite, non-negative number of seconds.
                "--time-limit" => {
                    if let Some(v) = iter
                        .next()
                        .and_then(|s| s.parse::<f64>().ok())
                        .filter(|v| v.is_finite() && *v >= 0.0)
                    {
                        out.time_limit = v;
                    }
                }
                "--runs" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse::<usize>().ok()) {
                        out.runs = v.max(1);
                    }
                }
                "--samples" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse::<usize>().ok()) {
                        out.samples = v.max(2);
                    }
                }
                "--seed" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse::<u64>().ok()) {
                        out.seed = v;
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Parses from the process arguments.
    pub fn parse(defaults: HarnessArgs) -> Self {
        Self::parse_from(std::env::args().skip(1), defaults)
    }
}

/// Returns the value following `flag` in the process arguments, if the flag
/// is present. A flag given without a value aborts with exit code 2 — a
/// requested output (e.g. `--json <path>`) must never be silently dropped.
/// Shared by the table binaries so flag handling cannot drift between them.
pub fn parse_flag_value(bin: &str, flag: &str) -> Option<String> {
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        if arg == flag {
            return Some(raw.next().unwrap_or_else(|| {
                eprintln!("{bin}: missing value after {flag}");
                std::process::exit(2);
            }));
        }
    }
    None
}

/// Parses the value following `flag` in the process arguments, or returns
/// `default` when the flag is absent. A value that does not parse as `T`,
/// or that `valid` rejects, aborts with exit code 2 and a message naming the
/// flag and what it `expects` — a mistyped option must never run the
/// default instead.
pub fn parse_flag<T: std::str::FromStr>(
    bin: &str,
    flag: &str,
    default: T,
    expects: &str,
    valid: fn(&T) -> bool,
) -> T {
    let Some(raw) = parse_flag_value(bin, flag) else {
        return default;
    };
    match raw.parse::<T>() {
        Ok(value) if valid(&value) => value,
        _ => {
            eprintln!("{bin}: {flag} expects {expects}, got `{raw}`");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_known_flags() {
        let args = HarnessArgs::parse_from(
            strs(&["--time-limit", "2.5", "--runs", "5", "--seed", "7"]),
            HarnessArgs::default(),
        );
        assert_eq!(args.time_limit, 2.5);
        assert_eq!(args.runs, 5);
        assert_eq!(args.seed, 7);
    }

    #[test]
    fn ignores_unknown_flags_and_bad_values() {
        let args = HarnessArgs::parse_from(
            strs(&["--whatever", "x", "--runs", "not-a-number"]),
            HarnessArgs::default(),
        );
        assert_eq!(args.runs, HarnessArgs::default().runs);
        assert_eq!(args.time_limit, HarnessArgs::default().time_limit);
    }

    #[test]
    fn keeps_the_default_for_non_finite_or_negative_time_limits() {
        for bad in ["-1", "nan", "NaN", "inf", "-inf", "infinity", "-0.5"] {
            let args = HarnessArgs::parse_from(
                strs(&["--time-limit", bad, "--runs", "4"]),
                HarnessArgs::default(),
            );
            assert_eq!(args.time_limit, HarnessArgs::default().time_limit, "{bad}");
            assert_eq!(args.runs, 4, "{bad}: later flags still parse");
        }
        let zero = HarnessArgs::parse_from(strs(&["--time-limit", "0"]), HarnessArgs::default());
        assert_eq!(zero.time_limit, 0.0);
    }

    #[test]
    fn clamps_degenerate_values() {
        let args = HarnessArgs::parse_from(
            strs(&["--runs", "0", "--samples", "1"]),
            HarnessArgs::default(),
        );
        assert_eq!(args.runs, 1);
        assert_eq!(args.samples, 2);
    }
}
