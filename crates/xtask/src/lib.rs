//! `ldpjs-xtask` — workspace maintenance tasks: the repo-specific static-analysis lint
//! engine behind `cargo run -p ldpjs-xtask -- lint`, and the source line count behind
//! `cargo run -p ldpjs-xtask -- loc` ([`loc`]).
//!
//! The engine is deliberately dependency-free: a line-level lexer ([`lexer`]) feeds five
//! rule families ([`rules`]) that encode this repository's contracts — `SAFETY:`-documented
//! `unsafe`, SIMD kernels confined behind runtime feature dispatch, deterministic
//! library code (no wall clocks, no hash-order iteration, no entropy-seeded RNGs),
//! panic-free estimator/service crates, and injected-clock-only telemetry timings.
//! See README.md, "Static analysis & unsafe policy".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod loc;
pub mod rules;

use std::fmt;
use std::path::Path;

/// The five rule families the engine enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Every `unsafe` site carries an adjacent `// SAFETY:` contract.
    UnsafeContract,
    /// SIMD intrinsics stay in the three kernel files, kernels are `unsafe fn`, and call
    /// sites are guarded by `is_x86_feature_detected!`.
    SimdDispatch,
    /// No wall clocks, hash-order iteration, or entropy-seeded RNGs in library code.
    Determinism,
    /// No `unwrap()`/`expect()`/`panic!` in estimator/service library code.
    PanicFreedom,
    /// No implicit wall-clock reads via `.elapsed()` in library code: telemetry timings
    /// flow from injected `Instant`s (`duration_since`), never from the ambient clock.
    TelemetryClock,
}

impl Rule {
    /// The stable rule identifier used in diagnostics and `lint:allow(<id>)` escapes.
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnsafeContract => "unsafe-contract",
            Rule::SimdDispatch => "simd-dispatch",
            Rule::Determinism => "determinism",
            Rule::PanicFreedom => "panic-freedom",
            Rule::TelemetryClock => "telemetry-clock",
        }
    }
}

/// One lint finding, addressed `path:line`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub rel: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation and remedy.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// What kind of compilation target a file belongs to (rules scope by this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// Library code (`src/` excluding `src/bin/` and `main.rs`).
    Lib,
    /// Binary targets (`src/bin/`, `src/main.rs`).
    Bin,
    /// Integration tests (`tests/`).
    Test,
    /// Benchmarks (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
}

/// Where a file sits in the workspace: its path, owning crate, and target kind.
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Short crate directory name (`core`, `service`, …; `ldpjs` for the facade).
    pub crate_name: String,
    /// The compilation-target kind.
    pub kind: TargetKind,
}

impl FileClass {
    /// Classify a workspace-relative path.
    pub fn classify(rel: &str) -> Self {
        let parts: Vec<&str> = rel.split('/').collect();
        let (crate_name, rest): (&str, &[&str]) =
            if parts.first() == Some(&"crates") && parts.len() > 2 {
                (parts[1], &parts[2..])
            } else {
                ("ldpjs", &parts[..])
            };
        let kind = match rest.first().copied() {
            Some("tests") => TargetKind::Test,
            Some("benches") => TargetKind::Bench,
            Some("examples") => TargetKind::Example,
            Some("src") => {
                if rest.get(1) == Some(&"bin") || rest.last() == Some(&"main.rs") {
                    TargetKind::Bin
                } else {
                    TargetKind::Lib
                }
            }
            _ => TargetKind::Lib,
        };
        FileClass {
            rel: rel.to_string(),
            crate_name: crate_name.to_string(),
            kind,
        }
    }

    /// Build a diagnostic anchored to this file.
    pub(crate) fn diag(&self, rule: Rule, line: usize, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rel: self.rel.clone(),
            line,
            rule,
            message: message.into(),
        }
    }
}

/// Lint a set of in-memory sources: `(workspace-relative path, text)` pairs.
///
/// This is the core entry point; the fixture self-tests call it directly. The
/// `#[target_feature]` kernel registry is built across the whole set first, so dispatch
/// checks see kernels defined in sibling files.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Diagnostic> {
    let models: Vec<(FileClass, lexer::FileModel)> = sources
        .iter()
        .map(|(rel, text)| (FileClass::classify(rel), lexer::analyze(&lexer::scan(text))))
        .collect();
    let mut kernels = Vec::new();
    for (_, model) in &models {
        kernels.extend(rules::collect_kernels(model));
    }
    let mut out = Vec::new();
    for (class, model) in &models {
        out.extend(rules::check_file(class, model, &kernels));
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel).then(a.line.cmp(&b.line)));
    out
}

/// Collect every lintable `.rs` source under `root` in a deterministic order.
///
/// Skipped subtrees: `target/` (build output), `.git/`, `vendor/` (third-party API shims
/// — `rand`/`proptest` follow upstream idiom, not this repo's rules), and
/// `fixtures/` (the lint engine's own known-bad test inputs).
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut rels = Vec::new();
    walk(root, root, &mut rels)?;
    rels.sort();
    rels.into_iter()
        .map(|rel| std::fs::read_to_string(root.join(&rel)).map(|text| (rel, text)))
        .collect()
}

/// Recursive directory walk accumulating workspace-relative `.rs` paths.
fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if matches!(name.as_str(), "target" | ".git" | "vendor" | "fixtures") {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lint every workspace source under `root`; returns the diagnostics and the number of
/// files checked.
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let sources = workspace_sources(root)?;
    let checked = sources.len();
    Ok((lint_sources(&sources), checked))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_layout() {
        let c = FileClass::classify("crates/core/src/client.rs");
        assert_eq!((c.crate_name.as_str(), c.kind), ("core", TargetKind::Lib));
        let c = FileClass::classify("crates/experiments/src/bin/fig14_frequency.rs");
        assert_eq!(
            (c.crate_name.as_str(), c.kind),
            ("experiments", TargetKind::Bin)
        );
        let c = FileClass::classify("crates/common/benches/hadamard.rs");
        assert_eq!(
            (c.crate_name.as_str(), c.kind),
            ("common", TargetKind::Bench)
        );
        let c = FileClass::classify("crates/service/tests/e2e.rs");
        assert_eq!(
            (c.crate_name.as_str(), c.kind),
            ("service", TargetKind::Test)
        );
        let c = FileClass::classify("src/lib.rs");
        assert_eq!((c.crate_name.as_str(), c.kind), ("ldpjs", TargetKind::Lib));
        let c = FileClass::classify("examples/quickstart.rs");
        assert_eq!(
            (c.crate_name.as_str(), c.kind),
            ("ldpjs", TargetKind::Example)
        );
    }

    fn lint_one(rel: &str, text: &str) -> Vec<Diagnostic> {
        lint_sources(&[(rel.to_string(), text.to_string())])
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_safety_satisfies() {
        let bad = "pub fn f(x: &mut [f64]) {\n    unsafe { core::ptr::null::<u8>(); }\n}\n";
        let diags = lint_one("crates/common/src/scratch.rs", &bad.replace("XX", ""));
        assert!(diags.iter().any(|d| d.rule == Rule::UnsafeContract));
        let good =
            "pub fn f(x: &mut [f64]) {\n    // SAFETY: null is a valid const pointer.\n    unsafe { core::ptr::null::<u8>(); }\n}\n";
        let diags = lint_one("crates/common/src/scratch.rs", good);
        assert!(!diags.iter().any(|d| d.rule == Rule::UnsafeContract));
    }

    #[test]
    fn lint_allow_suppresses_exactly_one_finding() {
        let src = "pub fn f(a: Option<u32>, b: Option<u32>) -> u32 {\n\
                   // lint:allow(panic-freedom) — caller guarantees `a` is Some.\n\
                   let x = a.unwrap();\n\
                   let y = b.unwrap();\n\
                   x + y\n}\n";
        let diags = lint_one("crates/core/src/demo.rs", src);
        let panics: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == Rule::PanicFreedom)
            .collect();
        assert_eq!(
            panics.len(),
            1,
            "only the un-allowed unwrap fires: {diags:?}"
        );
        assert_eq!(panics[0].line, 4);
    }

    #[test]
    fn test_code_is_exempt_from_panic_freedom() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let diags = lint_one("crates/service/src/demo.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn kernel_registry_spans_files() {
        let kernel = "mod simd {\n\
                      #[target_feature(enable = \"avx2\")]\n\
                      // SAFETY: caller must prove avx2 is available.\n\
                      pub unsafe fn k(x: &mut [f64]) { x[0] = 0.0; }\n}\n";
        // Caller without a guard, in a different file: flagged.
        let caller = "pub fn call(x: &mut [f64]) {\n    super::k(x);\n}\n";
        let diags = lint_sources(&[
            (
                "crates/common/src/hadamard.rs".to_string(),
                kernel.to_string(),
            ),
            ("crates/common/src/other.rs".to_string(), caller.to_string()),
        ]);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::SimdDispatch && d.rel.ends_with("other.rs")),
            "{diags:?}"
        );
    }
}
