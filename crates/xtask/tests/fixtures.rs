//! Fixture self-tests for the lint engine.
//!
//! Each file under `tests/fixtures/` is a known-bad (or deliberately-suppressed) snippet
//! carrying two header directives: `//@path: <rel>` gives the pretend workspace-relative
//! path the snippet is linted under (rule scoping keys off the path), and one
//! `//@expect: <rule>@<line>` per diagnostic the engine must produce — exactly those, no
//! more, no fewer. A final test runs the real engine over the real workspace and demands
//! zero diagnostics, so the tree can never drift out of compliance without CI noticing.

use ldpjs_xtask::loc::LineCount;
use ldpjs_xtask::{lint_sources, lint_workspace};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A diagnostic reduced to its `(rule-id, line)` identity.
type RuleAt = (String, usize);

/// Lint one fixture; returns `(got, expected)` as sorted `(rule-id, line)` pairs.
fn run_fixture(name: &str) -> (Vec<RuleAt>, Vec<RuleAt>) {
    let text = std::fs::read_to_string(fixture_dir().join(name)).unwrap();
    let mut rel = None;
    let mut expected: Vec<RuleAt> = Vec::new();
    for line in text.lines() {
        if let Some(p) = line.strip_prefix("//@path:") {
            rel = Some(p.trim().to_string());
        } else if let Some(e) = line.strip_prefix("//@expect:") {
            let (rule, lineno) = e.trim().split_once('@').expect("format is rule@line");
            expected.push((rule.to_string(), lineno.parse().expect("line number")));
        }
    }
    let rel = rel.expect("fixture must declare //@path:");
    let mut got: Vec<RuleAt> = lint_sources(&[(rel, text)])
        .into_iter()
        .map(|d| (d.rule.id().to_string(), d.line))
        .collect();
    got.sort();
    expected.sort();
    (got, expected)
}

fn assert_fixture(name: &str) {
    let (got, expected) = run_fixture(name);
    assert_eq!(got, expected, "fixture {name}: diagnostics diverge");
}

#[test]
fn fixture_unsafe_without_safety_contract() {
    assert_fixture("unsafe_no_safety.rs");
}

#[test]
fn fixture_simd_outside_kernel_files() {
    assert_fixture("simd_outside.rs");
}

#[test]
fn fixture_simd_in_an_unlisted_common_file() {
    // `ldpjs-common` holds the kernel files, but only the listed ones may use intrinsics:
    // `batch.rs` has no kernel, so it is not listed.
    assert_fixture("simd_unlisted_common.rs");
}

#[test]
fn fixture_kernel_with_an_array_parameter() {
    // A `;` inside `&[__m512i; 6]` must not end the kernel's signature: the kernel is
    // registered, its same-feature helper call passes, and its unguarded caller is flagged.
    assert_fixture("simd_array_param.rs");
}

#[test]
fn fixture_nondeterminism_in_lib_code() {
    assert_fixture("determinism.rs");
}

#[test]
fn fixture_panics_in_service_lib_code() {
    assert_fixture("panic.rs");
}

#[test]
fn fixture_lint_allow_suppresses_exactly_one() {
    assert_fixture("allow.rs");
}

#[test]
fn fixture_implicit_wall_clock_in_lib_code() {
    assert_fixture("telemetry_clock.rs");
}

#[test]
fn loc_counts_every_line_outside_test_regions() {
    // The fixture's doc mentions `#[cfg(test)]` and a `#[cfg(test)]` helper precedes
    // library code: lines 1–8 and 13–19 count, and 6 of those 15 carry code.
    let text = std::fs::read_to_string(fixture_dir().join("loc.rs")).unwrap();
    assert_eq!(LineCount::of(&text), LineCount { lines: 15, code: 6 });
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (diags, checked) = lint_workspace(&root).expect("workspace sources readable");
    assert!(
        diags.is_empty(),
        "workspace must lint clean, got:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the walk actually visited the tree (the crates, the facade and its tests).
    assert!(checked > 50, "only {checked} files walked — walk broken?");
}
