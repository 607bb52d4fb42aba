//! Command-line arguments shared by the experiment binaries.
//!
//! A deliberately small hand-rolled parser (the approved dependency list contains no CLI
//! crate): flags are `--name value` pairs, unknown flags abort with a usage message.

/// Arguments common to every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpArgs {
    /// Scale factor applied to the paper's row counts (1.0 = paper scale).
    pub scale: f64,
    /// Number of testing rounds per configuration (the paper averages over rounds).
    pub trials: usize,
    /// Base RNG seed; trial `i` uses `seed + i`.
    pub seed: u64,
    /// Privacy budget used by figures that fix ε (overridable per binary).
    pub eps: f64,
    /// Quick mode: shrinks sweeps further, for CI and smoke runs.
    pub quick: bool,
    /// Optional free-form sweep selector (e.g. `--sweep m` / `--sweep k` for Fig. 9).
    pub sweep: Option<String>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            scale: 0.002,
            trials: 3,
            seed: 7,
            eps: 4.0,
            quick: false,
            sweep: None,
        }
    }
}

impl ExpArgs {
    /// Parse from an explicit iterator of arguments (exposed for tests).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = ExpArgs::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--scale" => out.scale = parse_value(&mut iter, "--scale")?,
                "--trials" => out.trials = parse_value(&mut iter, "--trials")?,
                "--seed" => out.seed = parse_value(&mut iter, "--seed")?,
                "--eps" => out.eps = parse_value(&mut iter, "--eps")?,
                "--sweep" => {
                    out.sweep = Some(
                        iter.next()
                            .ok_or_else(|| "--sweep needs a value".to_string())?,
                    )
                }
                "--quick" => out.quick = true,
                "--help" | "-h" => return Err(Self::usage()),
                other => return Err(format!("unknown flag `{other}`\n{}", Self::usage())),
            }
        }
        // `<= 0.0` alone would let NaN through: it compares false.
        if !(out.scale.is_finite() && out.scale > 0.0) {
            return Err("--scale must be a positive finite number".into());
        }
        if out.trials == 0 {
            return Err("--trials must be at least 1".into());
        }
        Ok(out)
    }

    /// Parse from the process arguments, exiting with a usage message on error.
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Usage text shared by all binaries.
    pub fn usage() -> String {
        "usage: <experiment> [--scale F] [--trials N] [--seed N] [--eps F] [--sweep m|k] [--quick]\n\
         --scale  fraction of the paper's row counts to generate (default 0.002)\n\
         --trials testing rounds per configuration (default 3)\n\
         --seed   base RNG seed (default 7)\n\
         --eps    privacy budget for figures that fix ε (default 4.0)\n\
         --sweep  sweep selector for fig9 (m or k)\n\
         --quick  shrink sweeps for smoke runs"
            .to_string()
    }

    /// Effective number of trials, halved (at least 1) in quick mode.
    pub fn effective_trials(&self) -> usize {
        if self.quick {
            (self.trials / 2).max(1)
        } else {
            self.trials
        }
    }
}

fn parse_value<T: std::str::FromStr, I: Iterator<Item = String>>(
    iter: &mut I,
    flag: &str,
) -> Result<T, String> {
    let raw = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("could not parse `{raw}` for {flag}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpArgs, String> {
        ExpArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_sensible() {
        let d = ExpArgs::default();
        assert!(d.scale > 0.0 && d.scale < 1.0);
        assert!(d.trials >= 1);
        assert_eq!(parse(&[]).unwrap(), d);
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--scale", "0.01", "--trials", "5", "--seed", "99", "--eps", "2.5", "--sweep", "k",
            "--quick",
        ])
        .unwrap();
        assert_eq!(a.scale, 0.01);
        assert_eq!(a.trials, 5);
        assert_eq!(a.seed, 99);
        assert_eq!(a.eps, 2.5);
        assert_eq!(a.sweep.as_deref(), Some("k"));
        assert!(a.quick);
        assert_eq!(a.effective_trials(), 2);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "abc"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--trials", "0"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }

    #[test]
    fn rejects_non_finite_scales() {
        for scale in ["NaN", "inf", "-inf", "infinity"] {
            assert!(parse(&["--scale", scale]).is_err(), "--scale {scale}");
        }
    }

    #[test]
    fn effective_trials_floor_is_one() {
        let a = ExpArgs {
            trials: 1,
            quick: true,
            ..ExpArgs::default()
        };
        assert_eq!(a.effective_trials(), 1);
    }
}
