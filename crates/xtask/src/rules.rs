//! The five repo-specific rule families: `unsafe-contract`, `simd-dispatch`,
//! `determinism`, `panic-freedom`, and `telemetry-clock`.
//!
//! Each rule is a token-level check over the [`crate::lexer::FileModel`] of a source file,
//! scoped by the file's [`crate::FileClass`]. The rules are heuristics by design — they
//! know this repository's idioms, not the Rust grammar — and every diagnostic can be
//! suppressed at the site with a `// lint:allow(<rule>)` comment on the offending line or
//! in the comment block directly above it (see `README.md`, "Static analysis & unsafe
//! policy", for when that is acceptable).

use crate::lexer::{has_ident, ident_followed_by, idents, FileModel};
use crate::{Diagnostic, FileClass, Rule, TargetKind};

/// The only files allowed to contain `core::arch` / `std::arch` / `#[target_feature]`.
pub const SIMD_FILES: &[&str] = &[
    "crates/common/src/hadamard.rs",
    "crates/common/src/screen.rs",
    "crates/common/src/hash.rs",
];

/// Crates whose library code must be panic-free (`unwrap`/`expect`/[`PANIC_MACROS`]).
const PANIC_CRATES: &[&str] = &["core", "service", "common"];

/// The panicking macros the panic-freedom rule flags, with their diagnostic names. The
/// `debug_assert*` family compiles out of release builds and stays allowed.
const PANIC_MACROS: [(&str, &str); 7] = [
    ("panic", "`panic!`"),
    ("unreachable", "`unreachable!`"),
    ("todo", "`todo!`"),
    ("unimplemented", "`unimplemented!`"),
    ("assert", "`assert!`"),
    ("assert_eq", "`assert_eq!`"),
    ("assert_ne", "`assert_ne!`"),
];

/// Crates whose library code must not iterate `HashMap`/`HashSet` (keyed lookup is fine).
const MAP_CRATES: &[&str] = &["core", "service", "sketch", "ldp"];

/// Crates allowed to read wall clocks (`Instant::now` / `SystemTime`).
const TIME_EXEMPT_CRATES: &[&str] = &["xtask"];

/// Entropy-seeded RNG constructors: all randomness must flow from explicit seeds.
const RNG_BANNED: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Methods whose call on a `HashMap`/`HashSet` receiver observes iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// A `#[target_feature]` function registered across the lint universe (pass 1 of the
/// dispatch check).
#[derive(Debug, Clone)]
pub struct KernelFn {
    /// The function name.
    pub name: String,
    /// The required CPU feature (`avx512f`, `avx2`, …).
    pub feature: String,
}

/// Collect every `#[target_feature]` function of a file for the global kernel registry.
pub fn collect_kernels(model: &FileModel) -> Vec<KernelFn> {
    model
        .fns
        .iter()
        .filter_map(|f| {
            f.feature.as_ref().map(|feat| KernelFn {
                name: f.name.clone(),
                feature: feat.clone(),
            })
        })
        .collect()
}

/// Run every rule over one file, given the cross-file kernel registry.
pub fn check_file(class: &FileClass, model: &FileModel, kernels: &[KernelFn]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    unsafe_contract(class, model, &mut out);
    simd_confinement(class, model, kernels, &mut out);
    determinism(class, model, &mut out);
    panic_freedom(class, model, &mut out);
    telemetry_clock(class, model, &mut out);
    out.retain(|d| !is_allowed(model, d.line - 1, d.rule));
    out
}

/// `true` if the comment block at/above 0-based `lineno` carries `lint:allow(<rule>)`.
fn is_allowed(model: &FileModel, lineno: usize, rule: Rule) -> bool {
    let needle = format!("lint:allow({})", rule.id());
    comment_block_at(model, lineno).any(|c| c.contains(&needle))
}

/// The comments covering a code line: its own trailing comment plus the contiguous run of
/// comment-/attribute-only lines directly above it.
fn comment_block_at(model: &FileModel, lineno: usize) -> impl Iterator<Item = &str> {
    let mut block = vec![model.lines[lineno].comment.as_str()];
    let mut i = lineno;
    while i > 0 {
        i -= 1;
        let line = &model.lines[i];
        let comment_only = line.is_code_blank() && !line.comment.trim().is_empty();
        if comment_only || line.is_attr() {
            block.push(line.comment.as_str());
        } else {
            break;
        }
    }
    block.into_iter()
}

/// **unsafe-contract** — every line containing the `unsafe` keyword must sit directly
/// under a `// SAFETY:` contract (or a `# Safety` doc section for `unsafe fn` items).
fn unsafe_contract(class: &FileClass, model: &FileModel, out: &mut Vec<Diagnostic>) {
    for (i, line) in model.lines.iter().enumerate() {
        if !has_ident(&line.code, "unsafe") {
            continue;
        }
        let documented =
            comment_block_at(model, i).any(|c| c.contains("SAFETY:") || c.contains("# Safety"));
        if !documented {
            out.push(class.diag(
                Rule::UnsafeContract,
                i + 1,
                "`unsafe` without an adjacent `// SAFETY:` contract (state the exact \
                 precondition that makes this sound)",
            ));
        }
    }
}

/// **simd-dispatch** — SIMD intrinsics stay confined to the three kernel files, every
/// `#[target_feature]` fn is `unsafe`, and kernels are only called behind a matching
/// `is_x86_feature_detected!` guard (or from a same-feature fn).
fn simd_confinement(
    class: &FileClass,
    model: &FileModel,
    kernels: &[KernelFn],
    out: &mut Vec<Diagnostic>,
) {
    let confined = SIMD_FILES.iter().any(|f| class.rel == *f);
    for (i, line) in model.lines.iter().enumerate() {
        if !confined {
            if arch_path(&line.code) {
                out.push(class.diag(
                    Rule::SimdDispatch,
                    i + 1,
                    "`core::arch`/`std::arch` outside the designated kernel files \
                     (crates/common/src/{hadamard,screen,hash}.rs)",
                ));
            }
            if line.is_attr() && has_ident(&line.code, "target_feature") {
                out.push(class.diag(
                    Rule::SimdDispatch,
                    i + 1,
                    "`#[target_feature]` outside the designated kernel files",
                ));
            }
        }
        // Call-site guard check, against the cross-file registry.
        for kernel in kernels {
            for (off, id) in idents(&line.code) {
                if id != kernel.name
                    || !matches!(
                        line.code[off + id.len()..].trim_start().chars().next(),
                        Some('(')
                    )
                {
                    continue;
                }
                // Skip the definition itself (`fn name(…)`).
                let before: Vec<&str> = idents(&line.code[..off]).iter().map(|t| t.1).collect();
                if before.last() == Some(&"fn") {
                    continue;
                }
                let enclosing = model.fn_of_line[i].map(|f| &model.fns[f]);
                let same_feature =
                    enclosing.is_some_and(|f| f.feature.as_deref() == Some(&kernel.feature));
                if same_feature {
                    continue;
                }
                let guarded = enclosing.is_some_and(|f| {
                    (f.body_start..=i).any(|l| {
                        let ln = &model.lines[l];
                        has_ident(&ln.code, "is_x86_feature_detected")
                            && ln.strings.iter().any(|s| s == &kernel.feature)
                    })
                });
                if !guarded {
                    out.push(class.diag(
                        Rule::SimdDispatch,
                        i + 1,
                        format!(
                            "call to `#[target_feature(enable = \"{feat}\")]` kernel \
                             `{name}` without a preceding \
                             `is_x86_feature_detected!(\"{feat}\")` guard in this fn",
                            feat = kernel.feature,
                            name = kernel.name,
                        ),
                    ));
                }
            }
        }
    }
    // Every `#[target_feature]` fn must be `unsafe`: misuse is instant UB, so the contract
    // must be part of the signature.
    for f in &model.fns {
        if f.feature.is_some() && !f.is_unsafe {
            out.push(class.diag(
                Rule::SimdDispatch,
                f.decl_line + 1,
                format!(
                    "`#[target_feature]` fn `{}` must be declared `unsafe fn` (calling it \
                     on a CPU without the feature is undefined behavior)",
                    f.name
                ),
            ));
        }
    }
}

/// `true` if the code contains a `core::arch` or `std::arch` path.
fn arch_path(code: &str) -> bool {
    let toks = idents(code);
    toks.windows(2).any(|w| {
        (w[0].1 == "core" || w[0].1 == "std")
            && w[1].1 == "arch"
            && code[w[0].0 + w[0].1.len()..w[1].0].trim() == "::"
    })
}

/// **determinism** — no wall clocks outside xtask, no `HashMap`/`HashSet`
/// iteration in estimator/service library code, no entropy-seeded RNGs anywhere.
fn determinism(class: &FileClass, model: &FileModel, out: &mut Vec<Diagnostic>) {
    if class.kind != TargetKind::Lib {
        return;
    }
    let check_time = !TIME_EXEMPT_CRATES.contains(&class.crate_name.as_str());
    let check_maps = MAP_CRATES.contains(&class.crate_name.as_str());
    let map_names = if check_maps {
        collect_map_names(model)
    } else {
        Vec::new()
    };
    for (i, line) in model.lines.iter().enumerate() {
        if model.in_test[i] {
            continue;
        }
        let code = &line.code;
        if check_time {
            let instant_now = idents(code).windows(2).any(|w| {
                w[0].1 == "Instant"
                    && w[1].1 == "now"
                    && code[w[0].0 + w[0].1.len()..w[1].0].trim() == "::"
            });
            if instant_now || has_ident(code, "SystemTime") {
                out.push(class.diag(
                    Rule::Determinism,
                    i + 1,
                    "wall-clock read (`Instant::now`/`SystemTime`) outside the xtask crate \
                     — inject the clock instead",
                ));
            }
        }
        for banned in RNG_BANNED {
            if has_ident(code, banned) {
                out.push(class.diag(
                    Rule::Determinism,
                    i + 1,
                    format!("entropy-seeded RNG (`{banned}`) — all randomness must flow from explicit seeds"),
                ));
            }
        }
        if !map_names.is_empty() && iterates_map(code, &map_names) {
            out.push(class.diag(
                Rule::Determinism,
                i + 1,
                "iteration over a `HashMap`/`HashSet` in estimator/service library code \
                 (iteration order is unstable) — use `BTreeMap`/`BTreeSet` or sort first; \
                 keyed lookup is fine",
            ));
        }
    }
}

/// Names (locals, fields, params) declared with a `HashMap`/`HashSet` type or constructed
/// from one, collected file-wide.
fn collect_map_names(model: &FileModel) -> Vec<String> {
    /// Tokens skipped when walking left from `HashMap` to the declared name: references,
    /// wrapper types, and path segments.
    const WRAPPERS: &[&str] = &["std", "collections", "sync", "Arc", "Rc", "Box", "Option"];
    let mut names = Vec::new();
    for line in &model.lines {
        let code = &line.code;
        let toks = idents(code);
        for (pos, (_, id)) in toks.iter().enumerate() {
            if *id != "HashMap" && *id != "HashSet" {
                continue;
            }
            // `name: [&] [wrappers <]* HashMap<…>` — a binding, field, or param type.
            let mut j = pos;
            while j > 0 && WRAPPERS.contains(&toks[j - 1].1) {
                j -= 1;
            }
            if j > 0 {
                let (prev_off, prev_id) = toks[j - 1];
                let gap = &code[prev_off + prev_id.len()..toks[j].0];
                let gap_ok = gap
                    .chars()
                    .all(|c| c.is_whitespace() || ":&<>()".contains(c));
                if gap.contains(':') && !gap.contains("::") && gap_ok {
                    names.push(prev_id.to_string());
                }
            }
            // `let [mut] name … = HashMap::new()` (or with_capacity/from/default).
            if let Some(let_pos) = toks[..pos].iter().position(|(_, t)| *t == "let") {
                let after = &toks[let_pos + 1..pos];
                if let Some((_, name)) = after.iter().find(|(_, t)| *t != "mut") {
                    names.push(name.to_string());
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// `true` if the line calls an order-observing method on (or `for`-iterates) one of the
/// known map names.
fn iterates_map(code: &str, map_names: &[String]) -> bool {
    let toks = idents(code);
    // `receiver.iter()` style: an iterating method whose receiver chain (`self.results`,
    // `cache.views`, …) names a known map. When the chain head is not a plain ident chain
    // (e.g. `f(x).iter()`), fall back to "any map name earlier on the line".
    for (pos, (off, id)) in toks.iter().enumerate() {
        let is_iter_method = ITER_METHODS.contains(id)
            && code[..*off].trim_end().ends_with('.')
            && matches!(
                code[off + id.len()..].trim_start().chars().next(),
                Some('(')
            );
        if !is_iter_method {
            continue;
        }
        let chain = receiver_chain(code[..*off].trim_end());
        let hit = if chain.is_empty() {
            toks[..pos]
                .iter()
                .any(|(_, t)| map_names.iter().any(|m| m == t))
        } else {
            chain.iter().any(|c| map_names.iter().any(|m| m == c))
        };
        if hit {
            return true;
        }
    }
    // `for x in [&mut] map` style.
    for (pos, (_, id)) in toks.iter().enumerate() {
        if *id != "in" || !toks[..pos].iter().any(|(_, t)| *t == "for") {
            continue;
        }
        if let Some((_, next)) = toks.get(pos + 1) {
            let target = if *next == "mut" {
                toks.get(pos + 2).map(|t| t.1)
            } else {
                Some(*next)
            };
            if target.is_some_and(|t| map_names.iter().any(|m| m == t)) {
                return true;
            }
        }
    }
    false
}

/// The `.`-joined ident chain ending at `prefix` (which ends with the method's dot):
/// `"… self.results."` → `["results", "self"]`. Empty when the receiver is not a plain
/// ident chain.
fn receiver_chain(prefix: &str) -> Vec<&str> {
    let mut rest = prefix.strip_suffix('.').unwrap_or(prefix).trim_end();
    let mut chain = Vec::new();
    loop {
        let tail_start = rest
            .rfind(|c: char| !c.is_ascii_alphanumeric() && c != '_')
            .map_or(0, |p| p + c_len(rest, p));
        let ident = &rest[tail_start..];
        if ident.is_empty() {
            break;
        }
        chain.push(ident);
        rest = rest[..tail_start].trim_end();
        match rest.strip_suffix('.') {
            Some(r) => rest = r.trim_end(),
            None => break,
        }
    }
    chain
}

/// Byte length of the char starting at byte position `p` in `s`.
fn c_len(s: &str, p: usize) -> usize {
    s[p..].chars().next().map_or(1, |c| c.len_utf8())
}

/// **panic-freedom** — no `unwrap()`/`expect()` or `panic!`/`unreachable!`/`todo!`/
/// `unimplemented!`/`assert!`/`assert_eq!`/`assert_ne!` in non-test library code of the
/// estimator and service crates (`debug_assert*` stays allowed).
fn panic_freedom(class: &FileClass, model: &FileModel, out: &mut Vec<Diagnostic>) {
    if class.kind != TargetKind::Lib || !PANIC_CRATES.contains(&class.crate_name.as_str()) {
        return;
    }
    for (i, line) in model.lines.iter().enumerate() {
        if model.in_test[i] {
            continue;
        }
        let code = &line.code;
        let method_call = |name: &str| {
            idents(code).iter().any(|(off, id)| {
                *id == name
                    && code[..*off].trim_end().ends_with('.')
                    && matches!(
                        code[off + id.len()..].trim_start().chars().next(),
                        Some('(')
                    )
            })
        };
        let offender = if method_call("unwrap") {
            Some("`.unwrap()`")
        } else if method_call("expect") {
            Some("`.expect()`")
        } else {
            PANIC_MACROS
                .into_iter()
                .find(|(name, _)| ident_followed_by(code, name, '!'))
                .map(|(_, what)| what)
        };
        if let Some(what) = offender {
            out.push(class.diag(
                Rule::PanicFreedom,
                i + 1,
                format!(
                    "{what} in {} library code — return a `Result`, restructure, or \
                     justify with `lint:allow(panic-freedom)` naming the invariant",
                    class.crate_name
                ),
            ));
        }
    }
}

/// **telemetry-clock** — `.elapsed()` is an implicit wall-clock read (`Instant::now()`
/// minus the stored instant) that the determinism rule's explicit-constructor check cannot
/// see. In non-exempt library code, timings must be explicit arithmetic between injected
/// `Instant`s (`later.duration_since(earlier)`), the pattern the service's epoch rotator
/// and query clock use. Lines that construct the instant in place
/// (`Instant::now().elapsed()`) are already the determinism rule's finding and are not
/// double-reported here.
fn telemetry_clock(class: &FileClass, model: &FileModel, out: &mut Vec<Diagnostic>) {
    if class.kind != TargetKind::Lib || TIME_EXEMPT_CRATES.contains(&class.crate_name.as_str()) {
        return;
    }
    for (i, line) in model.lines.iter().enumerate() {
        if model.in_test[i] {
            continue;
        }
        let code = &line.code;
        let toks = idents(code);
        let constructs_instant = toks.windows(2).any(|w| {
            w[0].1 == "Instant"
                && w[1].1 == "now"
                && code[w[0].0 + w[0].1.len()..w[1].0].trim() == "::"
        });
        if constructs_instant {
            continue;
        }
        let elapsed_call = toks.iter().any(|(off, id)| {
            *id == "elapsed"
                && code[..*off].trim_end().ends_with('.')
                && matches!(
                    code[off + id.len()..].trim_start().chars().next(),
                    Some('(')
                )
        });
        if elapsed_call {
            out.push(class.diag(
                Rule::TelemetryClock,
                i + 1,
                "`.elapsed()` reads the ambient wall clock — compute the duration from an \
                 injected `Instant` (`now.duration_since(earlier)`) or justify with \
                 `lint:allow(telemetry-clock)`",
            ));
        }
    }
}
