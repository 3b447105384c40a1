//! The workspace invariants, as named lints.
//!
//! Each lint is a lexical pass over one [`SourceFile`]'s code tokens —
//! comments, strings and doc text never fire. The lints encode the
//! conventions the compiler cannot check (see `docs/ARCHITECTURE.md`,
//! "Invariants & lints"):
//!
//! | Lint | Invariant |
//! |---|---|
//! | `determinism` | no `HashMap`/`HashSet` (default `RandomState` iteration order) in the deterministic crates; no `Instant::now`/`SystemTime::now`/`thread_rng` outside `ppr-bench`/`ppr-cli` |
//! | `unsafe-containment` | `unsafe` only in the allowlisted modules, and every `unsafe` site carries a `// SAFETY:` justification |
//! | `no-float` | no float literals or `f32`/`f64` tokens inside declared `region(no-float)` spans (the Q23.40 planner scoring and CRC paths) |
//! | `env-hygiene` | `std::env::var`/`var_os` only in `ppr_sim::env`, `ppr-cli` and `ppr-bench` |
//! | `thread-containment` | `thread::spawn`/`thread::scope`/`thread::Builder` (called, or imported from `std::thread`) only in `ppr_sim::experiments::common`, whose `par_map` runs an experiment's independent arms concurrently — every event loop stays single-threaded, so a per-flush fan-out cannot come back |
//! | `event-key-doc` | `ppr_sim::event` documents the heap ordering key verbatim — the literal `(time, priority, seq)` must appear in the module, so the total-order contract every driver leans on cannot silently rot out of the docs |
//! | `snapshot-field-doc` | every field inside a declared `region(snapshot-state)` span carries a `snapshot:` comment stating whether it is serialized or rebuilt on restore, and the checkpointed drivers (`ppr_sim::network`, the mesh experiment, the adversary actor) each declare at least one such region — so the snapshot format's field inventory cannot drift from the structs it serializes |
//! | `axis-doc` | every axis key in `ppr_sim::scenario`'s `SCENARIO_KEYS` table has a `` | `key` `` row in the README's scenario-axis table — so `--set` surface and documentation cannot drift apart |
//! | `directive` | `ppr-lint:` comments themselves parse and regions match (not suppressible) |
//!
//! Being lexical is a feature (no `syn`, no build, runs in
//! milliseconds) and a limit: a call like `FxCost::to_bits(x)` returns
//! `f64` without any float *token* on the line, and a `HashMap` behind
//! a type alias would hide. The lints guard the conventions as written
//! in this codebase — idiomatic std names, spelled out — which review
//! keeps true.

use crate::config::Config;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One lint violation (before suppression/baseline filtering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Lint name.
    pub lint: &'static str,
    /// Human explanation of the violation.
    pub message: String,
    /// Trimmed source line for context.
    pub context: String,
}

/// Names of every lint, for `--list` and allow(...) validation.
pub const LINT_NAMES: [&str; 9] = [
    "determinism",
    "unsafe-containment",
    "no-float",
    "env-hygiene",
    "thread-containment",
    "event-key-doc",
    "snapshot-field-doc",
    "axis-doc",
    "directive",
];

/// Crates whose iteration order and RNG usage feed `Reception` streams
/// and experiment output: the `determinism` collection scope.
const DETERMINISTIC_SCOPES: [&str; 6] = [
    "crates/ppr-core/",
    "crates/ppr-phy/",
    "crates/ppr-mac/",
    "crates/ppr-channel/",
    "crates/ppr-sim/",
    "src/", // the facade crate re-exports the deterministic surface
];

/// Crates allowed to read wall-clock time and OS randomness (drivers
/// and benchmarks — never simulation or protocol code).
const TIMING_EXEMPT_SCOPES: [&str; 2] = ["crates/ppr-bench/", "crates/ppr-cli/"];

/// The built-in modules allowed to contain `unsafe` (each must justify
/// every site with a `// SAFETY:` comment). Further modules are added
/// through the `unsafe-allowlist` array in `ppr-lint.toml` — a config
/// edit is reviewable debt, a lint-tool edit is not.
const UNSAFE_ALLOWLIST: [&str; 1] = ["crates/ppr-phy/src/simd.rs"];

/// Files/crates allowed to read environment variables. Everything else
/// must take configuration through `Scenario`/arguments so runs are
/// reproducible from their inputs alone.
const ENV_ALLOWLIST: [&str; 3] = [
    "crates/ppr-sim/src/env.rs",
    "crates/ppr-cli/",
    "crates/ppr-bench/",
];

/// The one module of the deterministic crates allowed to start threads:
/// its `par_map` spends a scenario's threads on independent experiment
/// arms.
const THREAD_HOME: &str = "crates/ppr-sim/src/experiments/common.rs";

/// The `std::thread` items that start threads.
const THREAD_STARTERS: [&str; 3] = ["spawn", "scope", "Builder"];

fn in_scope(path: &str, scopes: &[&str]) -> bool {
    scopes.iter().any(|s| path.starts_with(s))
}

/// Runs every lint over one file. `cfg` supplies the configured
/// extension of the `unsafe` allowlist; the baseline is applied later
/// by the engine, not here. Without README text the `axis-doc` lint
/// cannot run — the engine uses [`check_file_with_readme`].
pub fn check_file(file: &SourceFile, cfg: &Config) -> Vec<Finding> {
    check_file_with_readme(file, cfg, None)
}

/// [`check_file`] plus the cross-file `axis-doc` lint, which compares
/// the scenario-axis table against `readme` (the workspace README's
/// text; the engine passes the file's content, or `""` when the README
/// itself is missing — which correctly flags every axis as undocumented).
pub fn check_file_with_readme(
    file: &SourceFile,
    cfg: &Config,
    readme: Option<&str>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    directive_lint(file, &mut findings);
    determinism_lint(file, &mut findings);
    unsafe_containment_lint(file, cfg, &mut findings);
    no_float_lint(file, &mut findings);
    env_hygiene_lint(file, &mut findings);
    thread_containment_lint(file, &mut findings);
    event_key_doc_lint(file, &mut findings);
    snapshot_field_doc_lint(file, &mut findings);
    if let Some(readme) = readme {
        axis_doc_lint(file, readme, &mut findings);
    }
    findings.sort_by_key(|f| f.line);
    findings
}

fn finding(file: &SourceFile, line: u32, lint: &'static str, message: String) -> Finding {
    Finding {
        path: file.rel_path.clone(),
        line,
        lint,
        message,
        context: file.context(line),
    }
}

/// Malformed `ppr-lint:` comments are violations themselves, so a typo
/// in a suppression cannot silently disable it.
fn directive_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    for err in &file.directive_errors {
        out.push(finding(file, err.line, "directive", err.message.clone()));
    }
    for allow in &file.allows {
        for lint in &allow.lints {
            if !LINT_NAMES.contains(&lint.as_str()) {
                out.push(finding(
                    file,
                    allow.line,
                    "directive",
                    format!("allow({lint}) names an unknown lint"),
                ));
            }
        }
    }
}

/// `determinism`: hashed collections in the deterministic crates, and
/// wall-clock/OS-randomness outside the driver/bench crates.
fn determinism_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    let collection_scope = in_scope(&file.rel_path, &DETERMINISTIC_SCOPES);
    let timing_scope = !in_scope(&file.rel_path, &TIMING_EXEMPT_SCOPES);
    if !collection_scope && !timing_scope {
        return;
    }
    let tokens = &file.lexed.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if collection_scope {
            match name.as_str() {
                "HashMap" | "HashSet" => out.push(finding(
                    file,
                    tok.line,
                    "determinism",
                    format!(
                        "`{name}` iterates in `RandomState` hash order, which can leak into \
                         Reception streams and experiment output; use `BTreeMap`/`BTreeSet` \
                         or a fixed-seed hasher"
                    ),
                )),
                "RandomState" => out.push(finding(
                    file,
                    tok.line,
                    "determinism",
                    "`RandomState` is seeded from OS entropy per process".to_string(),
                )),
                _ => {}
            }
        }
        if timing_scope {
            match name.as_str() {
                "Instant" | "SystemTime" if followed_by_now(tokens, i) => out.push(finding(
                    file,
                    tok.line,
                    "determinism",
                    format!(
                        "`{name}::now` reads the wall clock; simulation and protocol code \
                         must be a function of its inputs (only ppr-bench/ppr-cli may time)"
                    ),
                )),
                "thread_rng" => out.push(finding(
                    file,
                    tok.line,
                    "determinism",
                    "`thread_rng` draws OS-seeded randomness; use the seeded per-reception \
                     RNG streams"
                        .to_string(),
                )),
                _ => {}
            }
        }
    }
}

/// `event-key-doc`: the event-core module must spell out its heap
/// ordering key, `(time, priority, seq)`, verbatim. Every simulation
/// driver's determinism argument reduces to that total order; the lint
/// keeps the contract written down next to the queue it governs.
fn event_key_doc_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.rel_path != "crates/ppr-sim/src/event.rs" {
        return;
    }
    if !file
        .lines
        .iter()
        .any(|l| l.contains("(time, priority, seq)"))
    {
        out.push(finding(
            file,
            1,
            "event-key-doc",
            "the event module must document its total ordering key with the literal \
             `(time, priority, seq)` — drivers rely on that contract for bit-identical replay"
                .to_string(),
        ));
    }
}

/// Files that hold checkpointed driver state and therefore must declare
/// at least one `region(snapshot-state)` span. The snapshot format's
/// field inventory is only as trustworthy as the regions that opt the
/// state in — a driver refactor that silently dropped its region would
/// also drop the field-doc requirement below.
const SNAPSHOT_STATE_FILES: [&str; 3] = [
    "crates/ppr-sim/src/network.rs",
    "crates/ppr-sim/src/experiments/mesh.rs",
    "crates/ppr-sim/src/adversary.rs",
];

/// `snapshot-field-doc`: inside a declared `region(snapshot-state)`
/// span, every field declaration must carry a `snapshot:` comment (same
/// line, or immediately above) stating whether the field is serialized
/// into the checkpoint or rebuilt on restore. The checkpointed drivers
/// themselves must declare such regions; anything else that opts in
/// (snapshot structs, the event queue) gets the same field discipline.
fn snapshot_field_doc_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    let has_region = file.regions.iter().any(|r| r.name == "snapshot-state");
    if SNAPSHOT_STATE_FILES.contains(&file.rel_path.as_str()) && !has_region {
        out.push(finding(
            file,
            1,
            "snapshot-field-doc",
            "this file holds checkpointed driver state and must declare at least one \
             `region(snapshot-state)` span so every state field documents its snapshot fate"
                .to_string(),
        ));
    }
    if !has_region {
        return;
    }
    // Declaration keywords that start non-field lines a region might
    // still cover (struct headers, impl blocks, helper code).
    const NON_FIELD_STARTERS: [&str; 16] = [
        "struct",
        "enum",
        "union",
        "impl",
        "fn",
        "let",
        "use",
        "mod",
        "const",
        "static",
        "type",
        "trait",
        "where",
        "match",
        "macro_rules",
        "return",
    ];
    let tokens = &file.lexed.tokens;
    let mut i = 0;
    while i < tokens.len() {
        let line = tokens[i].line;
        let mut j = i;
        while j < tokens.len() && tokens[j].line == line {
            j += 1;
        }
        let line_toks = &tokens[i..j];
        i = j;
        if !file.in_region("snapshot-state", line) {
            continue;
        }
        let TokenKind::Ident(first) = &line_toks[0].kind else {
            continue; // closing braces, attributes, …
        };
        if NON_FIELD_STARTERS.contains(&first.as_str()) {
            continue;
        }
        // A field declaration carries a single `name: Type` colon
        // (`::` path separators are two adjacent colon tokens).
        let single_colon = |k: usize| {
            line_toks[k].kind == TokenKind::Punct(':')
                && (k == 0 || line_toks[k - 1].kind != TokenKind::Punct(':'))
                && line_toks
                    .get(k + 1)
                    .is_none_or(|t| t.kind != TokenKind::Punct(':'))
        };
        if !(0..line_toks.len()).any(single_colon) {
            continue;
        }
        if !comment_covers(file, line, &|text: &str| text.contains("snapshot:")) {
            out.push(finding(
                file,
                line,
                "snapshot-field-doc",
                "field inside a region(snapshot-state) span without a `snapshot:` comment \
                 saying whether it is serialized into the checkpoint or rebuilt on restore"
                    .to_string(),
            ));
        }
    }
}

/// The one file that owns the scenario-axis surface: every `--set` key
/// the CLI accepts is declared in this file's `SCENARIO_KEYS` table.
const SCENARIO_FILE: &str = "crates/ppr-sim/src/scenario.rs";

/// `axis-doc`: every axis key in the `SCENARIO_KEYS` table must have a
/// `` | `key` `` row in the README's scenario-axis table. The lexer
/// drops string contents, so this lint re-scans the raw lines with a
/// tiny literal-aware reader — the table is the one place where string
/// *contents* are the invariant.
fn axis_doc_lint(file: &SourceFile, readme: &str, out: &mut Vec<Finding>) {
    if file.rel_path != SCENARIO_FILE {
        return;
    }
    let src = file.lines.join("\n");
    let keys = scenario_axis_keys(&src);
    if keys.is_empty() {
        out.push(finding(
            file,
            1,
            "axis-doc",
            "no `SCENARIO_KEYS` table found in the scenario module; the axis-doc lint \
             needs it to hold every `--set` key"
                .to_string(),
        ));
        return;
    }
    for (line, key) in keys {
        let row = format!("| `{key}`");
        if !readme.contains(&row) {
            out.push(finding(
                file,
                line,
                "axis-doc",
                format!(
                    "scenario axis `{key}` has no `| `{key}`` row in the README's \
                     scenario-axis table; document every `--set` key where users look first"
                ),
            ));
        }
    }
}

/// Extracts `(line, key)` for each tuple in the `SCENARIO_KEYS` array:
/// the first string literal inside each top-level parenthesis group.
/// Understands string literals (so `(` inside a description does not
/// open a tuple) and `\`-escapes (so multi-line literals survive).
fn scenario_axis_keys(src: &str) -> Vec<(u32, String)> {
    let Some(decl) = src.find("SCENARIO_KEYS") else {
        return Vec::new();
    };
    // Skip the type annotation (`&[(&str, &str)]` has brackets of its
    // own): the array literal is the first `[` after the `=`.
    let Some(eq) = src[decl..].find('=').map(|i| decl + i) else {
        return Vec::new();
    };
    let Some(open) = src[eq..].find('[').map(|i| i + eq - decl) else {
        return Vec::new();
    };
    let mut line = 1 + src[..decl + open].matches('\n').count() as u32;
    let mut keys = Vec::new();
    let mut chars = src[decl + open + 1..].chars().peekable();
    let mut paren_depth = 0usize; // tuple nesting inside the array
    let mut bracket_depth = 0usize;
    let mut key_taken = false; // first literal of the current tuple seen
    while let Some(c) = chars.next() {
        match c {
            '\n' => line += 1,
            '(' => {
                paren_depth += 1;
                if paren_depth == 1 {
                    key_taken = false;
                }
            }
            ')' => paren_depth = paren_depth.saturating_sub(1),
            '[' => bracket_depth += 1,
            ']' => {
                if bracket_depth == 0 {
                    break; // the array's own closing bracket
                }
                bracket_depth -= 1;
            }
            '"' => {
                let start_line = line;
                let mut text = String::new();
                while let Some(sc) = chars.next() {
                    match sc {
                        '"' => break,
                        '\\' => {
                            // Skip the escaped char; `\` + newline is the
                            // multi-line continuation, keep counting lines.
                            if let Some(&esc) = chars.peek() {
                                if esc == '\n' {
                                    line += 1;
                                }
                                chars.next();
                            }
                        }
                        '\n' => line += 1,
                        _ => text.push(sc),
                    }
                }
                if paren_depth == 1 && !key_taken {
                    key_taken = true;
                    keys.push((start_line, text));
                }
            }
            _ => {}
        }
    }
    keys
}

/// Is token `i` followed by `:: now`?
fn followed_by_now(tokens: &[crate::lexer::Token], i: usize) -> bool {
    matches!(
        tokens.get(i + 1).map(|t| &t.kind),
        Some(TokenKind::Punct(':'))
    ) && matches!(
        tokens.get(i + 2).map(|t| &t.kind),
        Some(TokenKind::Punct(':'))
    ) && matches!(tokens.get(i + 3).map(|t| &t.kind), Some(TokenKind::Ident(n)) if n == "now")
}

/// `unsafe-containment`: `unsafe` only in the allowlist (the built-in
/// set unioned with the config's `unsafe-allowlist`), and every site
/// justified by a `// SAFETY:` comment (same line, or immediately above
/// across attribute/comment/blank lines).
fn unsafe_containment_lint(file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
    let allowlisted = UNSAFE_ALLOWLIST
        .iter()
        .any(|m| file.rel_path.starts_with(m))
        || cfg
            .unsafe_allowlist
            .iter()
            .any(|m| file.rel_path.starts_with(m.as_str()));
    for tok in &file.lexed.tokens {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if name != "unsafe" {
            continue;
        }
        if !allowlisted {
            out.push(finding(
                file,
                tok.line,
                "unsafe-containment",
                "`unsafe` outside the allowlisted module set (built in: ppr_phy::simd; \
                 configured: the `unsafe-allowlist` array in ppr-lint.toml); extend the \
                 allowlist deliberately or keep the code safe"
                    .to_string(),
            ));
        } else if !has_safety_comment(file, tok.line) {
            out.push(finding(
                file,
                tok.line,
                "unsafe-containment",
                "`unsafe` site without a `// SAFETY:` comment justifying it".to_string(),
            ));
        }
    }
}

/// Looks for a SAFETY comment covering `line`: on the line itself, or
/// scanning upward while lines are blank, comment-only, or attributes.
fn has_safety_comment(file: &SourceFile, line: u32) -> bool {
    comment_covers(file, line, &comment_is_safety)
}

/// Does a comment matching `pred` cover `line` — on the line itself, or
/// scanning upward while lines are blank, comment-only, or attributes?
fn comment_covers(file: &SourceFile, line: u32, pred: &dyn Fn(&str) -> bool) -> bool {
    let hit = |l: u32| {
        file.lexed
            .comments
            .iter()
            .any(|c| c.line <= l && l <= c.end_line && pred(&c.text))
    };
    if hit(line) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if hit(l) {
            return true;
        }
        match file.lexed.first_token_on_line(l) {
            // Attributes (e.g. #[target_feature]) may sit between the
            // comment and the item it covers.
            Some(tok) if tok.kind == TokenKind::Punct('#') => continue,
            Some(_) => return false,
            None => continue, // blank or comment-only line
        }
    }
    false
}

fn comment_is_safety(text: &str) -> bool {
    text.contains("SAFETY:") || text.contains("# Safety")
}

/// `no-float`: float literals and `f32`/`f64` tokens inside declared
/// `region(no-float)` spans. The regions cover the fixed-point planner
/// scoring and the CRC kernels, where one stray float re-introduces
/// the exact-tie nondeterminism PR 5 removed.
fn no_float_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.regions.iter().any(|r| r.name == "no-float") {
        return;
    }
    for tok in &file.lexed.tokens {
        if !file.in_region("no-float", tok.line) {
            continue;
        }
        match &tok.kind {
            TokenKind::Number { float: true } => out.push(finding(
                file,
                tok.line,
                "no-float",
                "float literal inside a region(no-float) span".to_string(),
            )),
            TokenKind::Ident(name) if name == "f64" || name == "f32" => out.push(finding(
                file,
                tok.line,
                "no-float",
                format!("`{name}` inside a region(no-float) span"),
            )),
            _ => {}
        }
    }
}

/// `env-hygiene`: `env::var`/`env::var_os` only in the allowlisted
/// configuration seams.
fn env_hygiene_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    if in_scope(&file.rel_path, &ENV_ALLOWLIST) {
        return;
    }
    let tokens = &file.lexed.tokens;
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if name != "env" || !followed_by_var(tokens, i) {
            continue;
        }
        out.push(finding(
            file,
            tok.line,
            "env-hygiene",
            "`std::env::var` outside ppr_sim::env / ppr-cli / ppr-bench; route \
             configuration through Scenario so runs are reproducible"
                .to_string(),
        ));
    }
}

/// `thread-containment`: in the deterministic crates, threads start
/// only in [`THREAD_HOME`]. Flags `thread::spawn`, `thread::scope` and
/// `thread::Builder` paths, and those names inside a
/// `thread::{...}` import group.
fn thread_containment_lint(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&file.rel_path, &DETERMINISTIC_SCOPES) || file.rel_path == THREAD_HOME {
        return;
    }
    let tokens = &file.lexed.tokens;
    let is = |i: usize, p: char| matches!(tokens.get(i).map(|t| &t.kind), Some(TokenKind::Punct(c)) if *c == p);
    for (i, tok) in tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if name != "thread" || !is(i + 1, ':') || !is(i + 2, ':') {
            continue;
        }
        // `thread::spawn`, or `thread::{..., spawn, ...}`.
        let mut named = Vec::new();
        if is(i + 3, '{') {
            for t in &tokens[i + 4..] {
                match &t.kind {
                    TokenKind::Punct('}') => break,
                    TokenKind::Ident(n) => named.push((t.line, n.as_str())),
                    _ => {}
                }
            }
        } else if let Some(t) = tokens.get(i + 3) {
            if let TokenKind::Ident(n) = &t.kind {
                named.push((t.line, n.as_str()));
            }
        }
        for (line, item) in named {
            if THREAD_STARTERS.contains(&item) {
                out.push(finding(
                    file,
                    line,
                    "thread-containment",
                    format!(
                        "`thread::{item}` outside {THREAD_HOME}; event loops stay \
                         single-threaded — run independent arms through \
                         `experiments::common::par_map` instead"
                    ),
                ));
            }
        }
    }
}

/// Is token `i` followed by `:: var` or `:: var_os`?
fn followed_by_var(tokens: &[crate::lexer::Token], i: usize) -> bool {
    matches!(
        tokens.get(i + 1).map(|t| &t.kind),
        Some(TokenKind::Punct(':'))
    ) && matches!(
        tokens.get(i + 2).map(|t| &t.kind),
        Some(TokenKind::Punct(':'))
    ) && matches!(tokens.get(i + 3).map(|t| &t.kind),
            Some(TokenKind::Ident(n)) if n == "var" || n == "var_os")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        check_file(&SourceFile::parse(path, src), &Config::default())
    }

    #[test]
    fn hashmap_flagged_only_in_deterministic_scope() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check("crates/ppr-sim/src/x.rs", src).len(), 1);
        assert_eq!(check("crates/ppr-core/src/x.rs", src).len(), 1);
        assert!(check("crates/ppr-bench/src/x.rs", src).is_empty());
        assert!(check("crates/ppr-lint/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_bench_and_cli() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(check("crates/ppr-sim/src/x.rs", src).len(), 1);
        assert!(check("crates/ppr-bench/src/bin/b.rs", src).is_empty());
        assert!(check("crates/ppr-cli/src/main.rs", src).is_empty());
        // `Instant` alone (e.g. storing one passed in) is fine.
        assert!(check("crates/ppr-sim/src/x.rs", "fn f(t: Instant) {}\n").is_empty());
        assert_eq!(
            check("crates/ppr-mac/src/x.rs", "let x = SystemTime::now();\n").len(),
            1
        );
        assert_eq!(
            check("crates/ppr-core/src/x.rs", "let r = thread_rng();\n").len(),
            1
        );
    }

    #[test]
    fn event_module_must_document_its_ordering_key() {
        // Any other file is out of scope, key or no key.
        assert!(check("crates/ppr-sim/src/rxpath.rs", "fn f() {}\n").is_empty());

        let bare = "//! An event queue.\npub struct Q;\n";
        let f = check("crates/ppr-sim/src/event.rs", bare);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "event-key-doc");

        let documented = "//! Keys order as (time, priority, seq).\npub struct Q;\n";
        assert!(check("crates/ppr-sim/src/event.rs", documented).is_empty());
    }

    #[test]
    fn unsafe_outside_allowlist_and_missing_safety() {
        let src = "fn f() { unsafe { g() } }\n";
        let f = check("crates/ppr-core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "unsafe-containment");

        // Allowlisted module without SAFETY comment: still a violation.
        let f = check("crates/ppr-phy/src/simd.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SAFETY"));

        // SAFETY on the preceding line, across attributes.
        let ok = "\
// SAFETY: feature checked at dispatch.
#[target_feature(enable = \"avx2\")]
unsafe fn g() {}
";
        assert!(check("crates/ppr-phy/src/simd.rs", ok).is_empty());
        // Same-line SAFETY.
        let ok2 = "let x = unsafe { p.read() }; // SAFETY: p is valid.\n";
        assert!(check("crates/ppr-phy/src/simd.rs", ok2).is_empty());
    }

    #[test]
    fn configured_unsafe_allowlist_extends_builtin() {
        let src = "// SAFETY: feature checked at dispatch.\nunsafe fn g() {}\n";
        let cfg = Config {
            unsafe_allowlist: vec!["crates/ppr-mac/src/clmul.rs".to_string()],
            ..Config::default()
        };
        // Configured module: allowed (with SAFETY), like the built-in one.
        let f = check_file(&SourceFile::parse("crates/ppr-mac/src/clmul.rs", src), &cfg);
        assert!(f.is_empty(), "{f:?}");
        // The SAFETY requirement is not waived by configuration.
        let f = check_file(
            &SourceFile::parse("crates/ppr-mac/src/clmul.rs", "unsafe fn g() {}\n"),
            &cfg,
        );
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SAFETY"));
        // Other modules still fail even with the config present.
        let f = check_file(&SourceFile::parse("crates/ppr-mac/src/crc.rs", src), &cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "unsafe-containment");
    }

    #[test]
    fn safety_scan_stops_at_code() {
        let src = "\
// SAFETY: this belongs to f, not g.
fn f() {}
unsafe fn g() {}
";
        let f = check("crates/ppr-phy/src/simd.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn no_float_only_inside_regions() {
        let src = "\
let a = 1.0;
// ppr-lint: region(no-float) begin
let b = 2;
let c = 3.0;
let d: f64 = e as f64;
// ppr-lint: region(no-float) end
let f = 4.0;
";
        let f = check("crates/ppr-core/src/dp.rs", src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.lint == "no-float"));
        assert_eq!(f[0].line, 4);
        assert_eq!(f[1].line, 5); // two findings on line 5 (f64 twice)
    }

    #[test]
    fn thread_starts_flagged_outside_the_par_map_home() {
        let spawn = "fn f() { std::thread::scope(|s| { s.spawn(|| ()); }); }\n";
        let f = check("crates/ppr-sim/src/rxpath.rs", spawn);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "thread-containment");
        for src in [
            "let h = thread::spawn(|| 1);\n",
            "let b = std::thread::Builder::new();\n",
            "use std::thread::{self, scope};\n",
        ] {
            let f = check("crates/ppr-core/src/x.rs", src);
            assert_eq!(f.len(), 1, "{src}: {f:?}");
        }
        // The par_map home, and crates outside the deterministic scope.
        assert!(check("crates/ppr-sim/src/experiments/common.rs", spawn).is_empty());
        assert!(check("crates/ppr-bench/src/x.rs", spawn).is_empty());
        assert!(check("crates/ppr-cli/src/main.rs", spawn).is_empty());
        // Non-starting thread items are fine anywhere.
        for src in [
            "let n = std::thread::available_parallelism();\n",
            "std::thread::sleep(d);\n",
            "use std::thread::{available_parallelism, sleep};\n",
        ] {
            assert!(check("crates/ppr-sim/src/x.rs", src).is_empty(), "{src}");
        }
    }

    #[test]
    fn env_var_flagged_outside_allowlist() {
        let src = "let v = std::env::var(\"X\");\n";
        assert_eq!(check("crates/ppr-phy/src/simd.rs", src).len(), 1);
        assert!(check("crates/ppr-sim/src/env.rs", src).is_empty());
        assert!(check("crates/ppr-cli/src/main.rs", src).is_empty());
        assert!(check("crates/ppr-bench/src/lib.rs", src).is_empty());
        let os = "if std::env::var_os(\"X\").is_some() {}\n";
        assert_eq!(check("crates/ppr-sim/src/traffic.rs", os).len(), 1);
        // env::args (no var) is fine anywhere.
        assert!(check("crates/ppr-lint/src/main.rs", "let a = std::env::args();\n").is_empty());
    }

    #[test]
    fn snapshot_fields_need_docs_only_inside_regions() {
        let src = "\
pub struct Driver {
    // ppr-lint: region(snapshot-state) begin driver state
    /// snapshot: serialized — the event queue.
    q: Queue,
    out: Vec<Option<Reception>>,
    busy: Vec<u64>, // snapshot: serialized.
    // ppr-lint: region(snapshot-state) end
    scratch: Vec<u8>,
}
";
        let f = check("crates/ppr-core/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "snapshot-field-doc");
        assert_eq!(f[0].line, 5); // `out` — undocumented; `scratch` is outside
    }

    #[test]
    fn snapshot_region_skips_non_field_lines() {
        let src = "\
// ppr-lint: region(snapshot-state) begin whole struct, header included
pub struct Snap {
    /// snapshot: serialized.
    pub seed: u64,
}
// ppr-lint: region(snapshot-state) end
";
        assert!(check("crates/ppr-core/src/x.rs", src).is_empty());
    }

    #[test]
    fn checkpointed_drivers_must_declare_snapshot_regions() {
        let bare = "pub struct ReceptionDriver { q: Queue }\n";
        for path in [
            "crates/ppr-sim/src/network.rs",
            "crates/ppr-sim/src/experiments/mesh.rs",
            "crates/ppr-sim/src/adversary.rs",
        ] {
            let f = check(path, bare);
            assert!(
                f.iter().any(|x| x.lint == "snapshot-field-doc"),
                "{path}: {f:?}"
            );
        }
        // Other files may simply not opt in.
        assert!(check("crates/ppr-sim/src/event.rs", "// (time, priority, seq)\n").is_empty());
    }

    fn check_readme(path: &str, src: &str, readme: &str) -> Vec<Finding> {
        check_file_with_readme(
            &SourceFile::parse(path, src),
            &Config::default(),
            Some(readme),
        )
    }

    #[test]
    fn axis_keys_extracted_from_the_table() {
        // One-line tuple, multi-line tuple, parenthesis inside a
        // description, and a `\`-continued multi-line literal.
        let src = "\
pub const SCENARIO_KEYS: &[(&str, &str)] = &[
    (\"duration\", \"positive seconds\"),
    (
        \"backend\",
        \"chip (dsp reserved, not yet wired)\",
    ),
    (
        \"jammer\",
        \"off | pulse:PERIOD:DUTY, \\
         e.g. jammer=pulse:32768:0.2\",
    ),
];
";
        let keys = scenario_axis_keys(src);
        assert_eq!(
            keys,
            vec![
                (2, "duration".to_string()),
                (4, "backend".to_string()),
                (8, "jammer".to_string()),
            ]
        );
        assert!(scenario_axis_keys("pub struct Scenario;\n").is_empty());
    }

    #[test]
    fn axis_doc_flags_undocumented_axes() {
        let src = "\
pub const SCENARIO_KEYS: &[(&str, &str)] = &[
    (\"seed\", \"u64\"),
    (\"jammer\", \"off | react:DELAY\"),
];
";
        let documented = "| `seed` | u64 |\n| `jammer` | jamming model |\n";
        assert!(check_readme(SCENARIO_FILE, src, documented).is_empty());

        let partial = "| `seed` | u64 |\n";
        let f = check_readme(SCENARIO_FILE, src, partial);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "axis-doc");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("jammer"));

        // Only the scenario module is in scope, and without README text
        // (plain `check_file`) the lint is off entirely.
        assert!(check_readme("crates/ppr-sim/src/x.rs", src, "").is_empty());
        assert!(check(SCENARIO_FILE, src).is_empty());

        // A scenario module that lost its table is itself a violation.
        let f = check_readme(SCENARIO_FILE, "pub struct Scenario;\n", documented);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "axis-doc");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn directive_errors_surface_as_findings() {
        let src = "// ppr-lint: allow(not-a-lint)\nlet x = 1;\n";
        let f = check("crates/ppr-core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].lint, "directive");
    }

    #[test]
    fn words_in_comments_and_strings_never_fire() {
        let src = "\
// HashMap, unsafe, thread_rng, Instant::now — prose only
let s = \"std::env::var HashMap 3.0\";
";
        assert!(check("crates/ppr-sim/src/x.rs", src).is_empty());
    }
}
