//! A minimal line-level Rust lexer and region model for the lint engine.
//!
//! This is deliberately **not** a parser. It splits a source file into per-line views —
//! code with comment text and literal contents blanked out, the comment text itself, and
//! the string-literal values — so that rule token scans can never match inside a comment,
//! a string, or a char literal, while the rules that *need* comment or literal text
//! (`SAFETY:` contracts, `is_x86_feature_detected!("…")` guards, `lint:allow(…)` escapes)
//! still see it. On top of the lines it builds a brace-depth region model: which lines are
//! `#[cfg(test)]` / `#[test]` code, and which function body (with its `#[target_feature]`
//! attribute, if any) each line belongs to.

/// One source line, split into the views the rules consume.
#[derive(Debug, Default, Clone)]
pub struct Line {
    /// Source text with comments and string/char literal contents replaced by spaces
    /// (column positions are preserved so in-line ordering checks stay meaningful).
    pub code: String,
    /// Concatenated comment text (line and block comments) appearing on this line.
    pub comment: String,
    /// Values of the string literals appearing on this line.
    pub strings: Vec<String>,
}

impl Line {
    /// `true` if the line carries no code at all (blank, comment-only, or inside a block
    /// comment).
    pub fn is_code_blank(&self) -> bool {
        self.code.trim().is_empty()
    }

    /// `true` if the line is attribute-only (its code starts with `#[` or `#![`).
    pub fn is_attr(&self) -> bool {
        let t = self.code.trim_start();
        t.starts_with("#[") || t.starts_with("#![")
    }
}

/// A function the region model discovered.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's name.
    pub name: String,
    /// The feature string of a `#[target_feature(enable = "…")]` attribute, if present.
    pub feature: Option<String>,
    /// Whether the declaration carries the `unsafe` qualifier.
    pub is_unsafe: bool,
    /// 0-based line of the `fn` keyword.
    pub decl_line: usize,
    /// 0-based first line of the body (the line holding the opening brace).
    pub body_start: usize,
}

/// The fully scanned, region-annotated model of one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Per-line lexical views.
    pub lines: Vec<Line>,
    /// Per-line flag: the line sits inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: Vec<bool>,
    /// Per-line index into [`FileModel::fns`] of the innermost enclosing function.
    pub fn_of_line: Vec<Option<usize>>,
    /// Every function discovered in the file.
    pub fns: Vec<FnInfo>,
}

/// Lexer state carried across lines.
enum State {
    /// Plain code.
    Code,
    /// Inside a (possibly nested) block comment; the payload is the nesting depth.
    Block(u32),
    /// Inside a normal string literal.
    Str,
    /// Inside a raw string literal closed by `"` followed by this many `#`s.
    RawStr(u32),
}

/// Split `text` into per-line lexical views.
pub fn scan(text: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut line = Line::default();
    let mut state = State::Code;
    let mut current_string = String::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if let State::Str | State::RawStr(_) = state {
                // Multi-line string: the value keeps accumulating across lines.
                current_string.push('\n');
            }
            lines.push(std::mem::take(&mut line));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    // Line comment (incl. doc comments): rest of the line is comment text.
                    let mut j = i;
                    while j < chars.len() && chars[j] != '\n' {
                        line.comment.push(chars[j]);
                        line.code.push(' ');
                        j += 1;
                    }
                    i = j;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::Block(1);
                    line.code.push_str("  ");
                    line.comment.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    current_string.clear();
                    line.code.push('"');
                    i += 1;
                } else if c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r')) {
                    // Possible raw string: r"…", r#"…"#, br"…".
                    let start = if c == 'b' { i + 1 } else { i };
                    let mut j = start + 1;
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        for _ in i..=j {
                            line.code.push(' ');
                        }
                        line.code.pop();
                        line.code.push('"');
                        state = State::RawStr(hashes);
                        current_string.clear();
                        i = j + 1;
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime: a lifetime's tick is never closed by a
                    // matching tick within two characters.
                    if chars.get(i + 1) == Some(&'\\') {
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                            j += 1;
                        }
                        for _ in i..=j.min(chars.len() - 1) {
                            line.code.push(' ');
                        }
                        i = (j + 1).min(chars.len());
                    } else if chars.get(i + 2) == Some(&'\'') {
                        line.code.push_str("   ");
                        i += 3;
                    } else {
                        line.code.push('\'');
                        i += 1;
                    }
                } else {
                    line.code.push(c);
                    i += 1;
                }
            }
            State::Block(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth > 1 {
                        State::Block(depth - 1)
                    } else {
                        State::Code
                    };
                    line.code.push_str("  ");
                    line.comment.push_str("  ");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::Block(depth + 1);
                    line.code.push_str("  ");
                    line.comment.push_str("  ");
                    i += 2;
                } else {
                    line.code.push(' ');
                    line.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    current_string.push(c);
                    if let Some(&n) = chars.get(i + 1) {
                        current_string.push(n);
                        line.code.push_str("  ");
                        i += 2;
                    } else {
                        line.code.push(' ');
                        i += 1;
                    }
                } else if c == '"' {
                    line.code.push('"');
                    line.strings.push(std::mem::take(&mut current_string));
                    state = State::Code;
                    i += 1;
                } else {
                    current_string.push(c);
                    line.code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                let mut closes = false;
                if c == '"' {
                    closes = (0..hashes as usize).all(|k| chars.get(i + 1 + k) == Some(&'#'));
                }
                if closes {
                    line.code.push('"');
                    for _ in 0..hashes {
                        line.code.push(' ');
                    }
                    line.strings.push(std::mem::take(&mut current_string));
                    state = State::Code;
                    i += 1 + hashes as usize;
                } else {
                    current_string.push(c);
                    line.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !line.code.is_empty() || !line.comment.is_empty() {
        lines.push(line);
    }
    lines
}

/// Iterate the identifiers (and their byte offsets) in a code view.
pub fn idents(code: &str) -> Vec<(usize, &str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'_' || c.is_ascii_alphabetic() {
            let start = i;
            while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                i += 1;
            }
            out.push((start, &code[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

/// `true` if `code` contains `name` as a whole identifier.
pub fn has_ident(code: &str, name: &str) -> bool {
    idents(code).iter().any(|(_, id)| *id == name)
}

/// The first non-whitespace character at or after `offset`, with its offset.
fn next_nonspace(code: &str, offset: usize) -> Option<(usize, char)> {
    code[offset..]
        .char_indices()
        .find(|(_, c)| !c.is_whitespace())
        .map(|(d, c)| (offset + d, c))
}

/// `true` if identifier `name` occurs in `code` immediately followed (modulo whitespace)
/// by `next`.
pub fn ident_followed_by(code: &str, name: &str, next: char) -> bool {
    idents(code)
        .iter()
        .filter(|(_, id)| *id == name)
        .any(|(off, id)| matches!(next_nonspace(code, off + id.len()), Some((_, c)) if c == next))
}

/// Build the region model (test spans, function spans) for scanned lines.
pub fn analyze(lines: &[Line]) -> FileModel {
    struct Region {
        open_depth: usize,
        is_test: bool,
        fn_idx: Option<usize>,
    }
    let n = lines.len();
    let mut in_test = vec![false; n];
    let mut fn_of_line = vec![None; n];
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut regions: Vec<Region> = Vec::new();
    let mut depth = 0usize;
    let mut pending_test = false;
    let mut pending_feature: Option<String> = None;
    // A declared-but-not-yet-opened `fn`: (name, feature, is_unsafe, decl_line).
    let mut pending_fn: Option<(String, Option<String>, bool, usize)> = None;
    // `(`/`[` nesting opened since the pending `fn` head: a `;` inside it belongs to a
    // parameter type such as `[T; N]`, not to the end of the item.
    let mut head_nesting = 0usize;

    for (lineno, line) in lines.iter().enumerate() {
        // Attribute lines accumulate pending item markers.
        if line.is_attr() {
            let ids = idents(&line.code);
            let has = |name: &str| ids.iter().any(|(_, id)| *id == name);
            if (has("cfg") && has("test") && !has("not")) || has("test") && ids.len() == 1 {
                pending_test = true;
            }
            if has("target_feature") {
                pending_feature = line.strings.first().cloned();
            }
        }
        // A `fn` declaration head picks up the pending attributes.
        if has_ident(&line.code, "fn") && pending_fn.is_none() {
            let ids = idents(&line.code);
            if let Some(pos) = ids.iter().position(|(_, id)| *id == "fn") {
                if let Some((_, name)) = ids.get(pos + 1) {
                    let is_unsafe = ids[..pos].iter().any(|(_, id)| *id == "unsafe");
                    pending_fn =
                        Some((name.to_string(), pending_feature.take(), is_unsafe, lineno));
                    head_nesting = 0;
                }
            }
        }

        // Line attribution: the state at the start of the line, upgraded by anything that
        // opens on the line itself (so one-line bodies are still attributed).
        let mut line_test = regions.iter().any(|r| r.is_test) || pending_test;
        let mut line_fn = regions.iter().rev().find_map(|r| r.fn_idx);

        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    let fn_idx = pending_fn.take().map(|(name, feature, is_unsafe, decl)| {
                        fns.push(FnInfo {
                            name,
                            feature,
                            is_unsafe,
                            decl_line: decl,
                            body_start: lineno,
                        });
                        fns.len() - 1
                    });
                    if fn_idx.is_some() {
                        line_fn = fn_idx;
                        pending_feature = None;
                    }
                    regions.push(Region {
                        open_depth: depth,
                        is_test: pending_test,
                        fn_idx,
                    });
                    if pending_test {
                        line_test = true;
                    }
                    pending_test = false;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    while regions.last().is_some_and(|r| r.open_depth > depth) {
                        regions.pop();
                    }
                }
                '(' | '[' if pending_fn.is_some() => head_nesting += 1,
                ')' | ']' if pending_fn.is_some() => {
                    head_nesting = head_nesting.saturating_sub(1);
                }
                ';' if head_nesting == 0 => {
                    // An item ended without a body: drop markers that never attached.
                    pending_fn = None;
                    pending_test = false;
                }
                _ => {}
            }
        }
        in_test[lineno] = line_test || regions.iter().any(|r| r.is_test);
        fn_of_line[lineno] = line_fn.or_else(|| regions.iter().rev().find_map(|r| r.fn_idx));
    }

    FileModel {
        lines: lines.to_vec(),
        in_test,
        fn_of_line,
        fns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"unsafe\"; // unsafe in comment\nlet y = 'a';\n";
        let lines = scan(src);
        assert!(!has_ident(&lines[0].code, "unsafe"));
        assert!(lines[0].comment.contains("unsafe in comment"));
        assert_eq!(lines[0].strings, vec!["unsafe".to_string()]);
        assert!(has_ident(&lines[1].code, "let"));
    }

    #[test]
    fn block_comments_span_lines() {
        let src = "a /* one\ntwo */ b\n";
        let lines = scan(src);
        assert!(has_ident(&lines[0].code, "a"));
        assert!(!has_ident(&lines[0].code, "one"));
        assert!(!has_ident(&lines[1].code, "two"));
        assert!(has_ident(&lines[1].code, "b"));
    }

    #[test]
    fn raw_strings_and_lifetimes() {
        let src = "let s = r#\"fn unsafe\"#;\nfn f<'a>(x: &'a u32) -> &'a u32 { x }\n";
        let lines = scan(src);
        assert!(!has_ident(&lines[0].code, "unsafe"));
        assert_eq!(lines[0].strings, vec!["fn unsafe".to_string()]);
        assert!(has_ident(&lines[1].code, "fn"));
    }

    #[test]
    fn test_regions_and_fns_are_tracked() {
        let src = "\
fn library(x: u32) -> u32 {
    x + 1
}

#[cfg(test)]
mod tests {
    #[test]
    fn check() {
        assert!(true);
    }
}
";
        let model = analyze(&scan(src));
        assert!(!model.in_test[1], "library body is not test code");
        assert!(model.in_test[8], "test body is test code");
        let f = model.fn_of_line[1].expect("library body line has a fn");
        assert_eq!(model.fns[f].name, "library");
        assert!(!model.fns[f].is_unsafe);
    }

    #[test]
    fn target_feature_and_unsafe_are_captured() {
        let src = "\
#[target_feature(enable = \"avx2\")]
unsafe fn kernel(data: &mut [f64]) {
    data[0] = 1.0;
}
";
        let model = analyze(&scan(src));
        assert_eq!(model.fns.len(), 1);
        assert_eq!(model.fns[0].feature.as_deref(), Some("avx2"));
        assert!(model.fns[0].is_unsafe);
        assert_eq!(model.fns[0].decl_line, 1);
    }

    #[test]
    fn array_parameters_do_not_end_a_signature() {
        let src = "\
#[target_feature(enable = \"avx512f\")]
unsafe fn fold(planes: &[__m512i; 6],
    tail: [u64; 2]) -> u64 {
    helper(planes)
}
fn declared(x: [u8; 4]);
fn after() {}
";
        let model = analyze(&scan(src));
        let names: Vec<&str> = model.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["fold", "after"]);
        assert_eq!(model.fns[0].feature.as_deref(), Some("avx512f"));
        assert_eq!(model.fns[0].body_start, 2);
        assert_eq!(model.fn_of_line[3], Some(0), "the body is the kernel's");
    }

    #[test]
    fn ident_helpers_respect_boundaries() {
        assert!(has_ident("unsafe {", "unsafe"));
        assert!(!has_ident("unsafe_code", "unsafe"));
        assert!(ident_followed_by("foo ()", "foo", '('));
        assert!(!ident_followed_by("foo :: bar", "foo", '('));
    }
}
