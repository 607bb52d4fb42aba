//! CLI for the workspace maintenance tasks: `cargo run -p ldpjs-xtask -- lint` and
//! `cargo run -p ldpjs-xtask -- loc`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p ldpjs-xtask -- lint [--root <dir>] [<file.rs>...]");
    eprintln!("       cargo run -p ldpjs-xtask -- loc");
    eprintln!();
    eprintln!("subcommands:");
    eprintln!("  lint    run the repo-specific static-analysis rules (unsafe-contract,");
    eprintln!("          simd-dispatch, determinism, panic-freedom, telemetry-clock);");
    eprintln!("          exits non-zero on findings. With no file arguments, lints");
    eprintln!("          every workspace .rs file under the root; with file arguments,");
    eprintln!("          lints exactly those files (honoring a leading `//@path:`");
    eprintln!("          pretend-path directive, the fixture convention).");
    eprintln!("  loc     print, per crate, the library and binary lines of src/ and");
    eprintln!("          crates/*/src/ (xtask excepted) outside #[cfg(test)] / #[test]");
    eprintln!("          code, and how many of them carry code.");
    ExitCode::from(2)
}

/// The workspace root: two levels above this crate's manifest. `cargo run` sets
/// `CARGO_MANIFEST_DIR` to the manifest of the tree it runs in; the path baked in at
/// compile time is only the fallback for a binary run directly, since a copied checkout
/// can reuse a binary built in the original tree.
fn default_root() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("..")
        .join("..")
}

/// Print the per-crate line counts and their total.
fn loc() -> ExitCode {
    let root = default_root();
    let crates = match ldpjs_xtask::loc::loc_workspace(&root) {
        Ok(crates) => crates,
        Err(e) => {
            eprintln!("loc: cannot walk workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    println!("{:<12}{:>8}{:>8}", "crate", "lines", "code");
    let (mut lines, mut code) = (0, 0);
    for (name, count) in &crates {
        println!("{name:<12}{:>8}{:>8}", count.lines, count.code);
        lines += count.lines;
        code += count.code;
    }
    println!("{:<12}{lines:>8}{code:>8}", "total");
    ExitCode::SUCCESS
}

/// Lint explicit files. A leading `//@path: <rel>` line (the fixture convention) overrides
/// the workspace-relative path used for rule scoping, so known-bad fixtures reproduce
/// their diagnostics from the CLI exactly as the self-tests see them.
fn lint_files(files: &[PathBuf]) -> ExitCode {
    let mut sources = Vec::new();
    for path in files {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let rel = text
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//@path:"))
            .map(|p| p.trim().to_string())
            .unwrap_or_else(|| path.to_string_lossy().replace('\\', "/"));
        sources.push((rel, text));
    }
    let diags = ldpjs_xtask::lint_sources(&sources);
    for d in &diags {
        eprintln!("{d}");
    }
    if diags.is_empty() {
        println!("lint: clean ({} files checked)", sources.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("lint: {} finding(s)", diags.len());
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {}
        Some("loc") if args.next().is_none() => return loc(),
        _ => return usage(),
    }
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            f if !f.starts_with('-') => files.push(PathBuf::from(f)),
            _ => return usage(),
        }
    }
    if !files.is_empty() {
        return lint_files(&files);
    }
    let root = root.unwrap_or_else(default_root);

    match ldpjs_xtask::lint_workspace(&root) {
        Ok((diags, checked)) => {
            for d in &diags {
                eprintln!("{d}");
            }
            if diags.is_empty() {
                println!("lint: workspace clean ({checked} files checked)");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "lint: {} finding(s) across {checked} files — fix or justify with \
                     `// lint:allow(<rule>)` (see README \"Static analysis & unsafe policy\")",
                    diags.len()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lint: cannot walk workspace at {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
