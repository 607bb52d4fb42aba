//! Line counts of the library and binary sources, behind `cargo run -p ldpjs-xtask -- loc`.
//!
//! A line counts when it lies outside the lexer's test regions
//! ([`FileModel::in_test`](crate::lexer::FileModel::in_test)): `#[cfg(test)]` items and
//! `#[test]` functions are left out wherever they sit in a file, and everything else is
//! kept, including library code after a test helper and doc comments that mention the
//! attribute. Of the counted lines, those that carry code (neither blank nor comment-only)
//! are also counted on their own.

use crate::lexer::{analyze, scan};
use crate::{workspace_sources, FileClass};
use std::collections::BTreeMap;
use std::path::Path;

/// Lines outside the test regions, of one file or summed over a crate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LineCount {
    /// Lines outside the test regions.
    pub lines: usize,
    /// Those of them that carry code.
    pub code: usize,
}

impl LineCount {
    /// Count one source text.
    pub fn of(text: &str) -> Self {
        let model = analyze(&scan(text));
        let mut count = LineCount::default();
        for (line, &in_test) in model.lines.iter().zip(&model.in_test) {
            if !in_test {
                count.lines += 1;
                count.code += usize::from(!line.is_code_blank());
            }
        }
        count
    }
}

/// Per-crate counts of the library and binary sources under `root`, in crate-name order:
/// the facade's `src/` (reported as `ldpjs`) and every `crates/<name>/src/` but xtask's.
pub fn loc_workspace(root: &Path) -> std::io::Result<Vec<(String, LineCount)>> {
    let mut crates: BTreeMap<String, LineCount> = BTreeMap::new();
    for (rel, text) in workspace_sources(root)? {
        let parts: Vec<&str> = rel.split('/').collect();
        let in_src = match parts.as_slice() {
            ["src", ..] => true,
            ["crates", name, "src", ..] => *name != "xtask",
            _ => false,
        };
        if !in_src {
            continue;
        }
        let count = LineCount::of(&text);
        let total = crates
            .entry(FileClass::classify(&rel).crate_name)
            .or_default();
        total.lines += count.lines;
        total.code += count.code;
    }
    Ok(crates.into_iter().collect())
}
