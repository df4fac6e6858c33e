//! `crac-lint`: the workspace's source analyzer for invariants no
//! compiler checks.
//!
//! The concurrent layers of this codebase (pre-copy checkpointing, lazy
//! restore fault servicing, the TCP server) are only analyzable because
//! every lock goes through `crac-sync`, every panic site is deliberate,
//! and every thread has an owner; and the codebase stays small only if
//! a `pub` item with no caller is noticed.  Those are project invariants
//! no compiler checks — this tool does, with `file:line` diagnostics and
//! an inline escape hatch, and CI gates on its exit code.
//!
//! ## Rules
//!
//! | id            | invariant                                                            |
//! |---------------|----------------------------------------------------------------------|
//! | `raw-lock`    | no `std::sync` lock types outside `crates/sync`                      |
//! | `no-unwrap`   | no `.unwrap()` / `.expect(...)` / `panic!(...)` in non-test library code |
//! | `raw-spawn`   | no `thread::spawn` outside approved scoped-spawn seams               |
//! | `raw-instant` | no `Instant::now()` timing outside `crac-obs` / `crac-sync` spans    |
//! | `unused-pub`  | no `pub fn/struct/enum/trait/type/const/static` that no other code token in the workspace names |
//!
//! [`run`] checks `unused-pub` over the whole workspace: `tests/` and
//! `examples/` trees count as callers, comments and strings do not.
//!
//! ## Escapes
//!
//! A justified exception is written inline:
//!
//! ```text
//! some_call(); // crac-lint: allow(no-unwrap) — reason the invariant holds
//! ```
//!
//! A directive suppresses matching diagnostics on its own line and on
//! the immediately following line (so a standalone comment line can
//! annotate the line below it).  Unknown rule ids in a directive are
//! themselves diagnostics — escapes must not rot.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions) is exempt
//! from every rule: tests unwrap and spawn freely.  Files under
//! `crates/shims/` are not scanned at all (they impersonate external
//! crates), `crates/sync` is exempt from `raw-lock` (it *wraps* the raw
//! types), and `crates/obs` + `crates/sync` are exempt from
//! `raw-instant` (they *are* the timing layer).

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One enforced invariant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Raw `std::sync` lock types outside `crac-sync`.
    RawLock,
    /// `.unwrap()` / `.expect(` / `panic!(` in non-test library code.
    NoUnwrap,
    /// `thread::spawn` outside approved scoped-spawn seams.
    RawSpawn,
    /// `Instant::now()` timing outside the observability layers.
    RawInstant,
    /// A `pub` item no other code in the workspace names.
    UnusedPub,
    /// A malformed or unknown allow directive (not allowable).
    Directive,
}

impl Rule {
    /// Every checkable rule (excludes the directive meta-rule).
    pub const ALL: [Rule; 5] = [
        Rule::RawLock,
        Rule::NoUnwrap,
        Rule::RawSpawn,
        Rule::RawInstant,
        Rule::UnusedPub,
    ];

    /// The stable id used in diagnostics and `allow(...)` directives.
    pub fn id(self) -> &'static str {
        match self {
            Rule::RawLock => "raw-lock",
            Rule::NoUnwrap => "no-unwrap",
            Rule::RawSpawn => "raw-spawn",
            Rule::RawInstant => "raw-instant",
            Rule::UnusedPub => "unused-pub",
            Rule::Directive => "directive",
        }
    }

    fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// Is `rel_path` (forward-slash, workspace-relative) exempt from
    /// this rule wholesale?
    fn path_exempt(self, rel_path: &str) -> bool {
        match self {
            Rule::RawLock => rel_path.starts_with("crates/sync/"),
            Rule::RawInstant => {
                rel_path.starts_with("crates/obs/") || rel_path.starts_with("crates/sync/")
            }
            _ => false,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One diagnostic: a rule violated at a source location.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description with the offending token.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The result of one analyzer run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every diagnostic, in (file, line) order.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Outcome {
    /// Renders diagnostics plus a one-line summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{v}");
        }
        if self.violations.is_empty() {
            let _ = writeln!(
                out,
                "crac-lint: OK — {} files scanned, 0 violations",
                self.files_scanned
            );
        } else {
            let files: std::collections::BTreeSet<&str> =
                self.violations.iter().map(|v| v.file.as_str()).collect();
            let _ = writeln!(
                out,
                "crac-lint: {} violation(s) in {} file(s) ({} files scanned)",
                self.violations.len(),
                files.len(),
                self.files_scanned
            );
        }
        out
    }
}

/// Walks `src/` and every `crates/*/src` under `root` (skipping
/// `crates/shims`) and scans each `.rs` file, with `tests/`,
/// `examples/`, `crates/*/tests` and `crates/*/examples` read as
/// references for `unused-pub`.
pub fn run(root: &Path) -> io::Result<Outcome> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    let mut references: Vec<(String, PathBuf)> = Vec::new();
    collect_rs(&root.join("src"), root, &mut files)?;
    for dir in ["tests", "examples"] {
        collect_rs(&root.join(dir), root, &mut references)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            if dir.file_name().is_some_and(|n| n == "shims") {
                continue;
            }
            collect_rs(&dir.join("src"), root, &mut files)?;
            for refs in ["tests", "examples"] {
                collect_rs(&dir.join(refs), root, &mut references)?;
            }
        }
    }
    files.sort();
    let mut outcome = Outcome::default();
    let mut counts = HashMap::new();
    let mut items = Vec::new();
    for (rel, path) in files {
        let source = std::fs::read_to_string(&path)?;
        let (violations, pub_items) = scan(&rel, &source, &mut counts);
        outcome.violations.extend(violations);
        items.extend(pub_items.into_iter().map(|item| (rel.clone(), item)));
        outcome.files_scanned += 1;
    }
    for (_, path) in references {
        for split in split_source(&std::fs::read_to_string(&path)?) {
            count_idents(&split.code, &mut counts);
        }
    }
    outcome.violations.extend(unused_pub(&items, &counts));
    outcome
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(outcome)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-file scanner
// ---------------------------------------------------------------------------

/// One source line split into its code text (string-literal and comment
/// content blanked) and its comment text (directive search space).
#[derive(Debug, Default)]
struct SplitLine {
    code: String,
    comment: String,
}

/// Lexer carry-over state between lines.
enum LexState {
    Code,
    BlockComment(u32),
    Str,
    RawStr(usize),
}

/// Splits source into per-line (code, comment) pairs, honoring string
/// literals (plain, raw, byte), char literals vs lifetimes, line
/// comments, and nested block comments.
fn split_source(source: &str) -> Vec<SplitLine> {
    let mut state = LexState::Code;
    let mut out = Vec::new();
    for line in source.lines() {
        let chars: Vec<char> = line.chars().collect();
        let mut split = SplitLine::default();
        let mut i = 0usize;
        while i < chars.len() {
            match state {
                LexState::Code => {
                    let c = chars[i];
                    let next = chars.get(i + 1).copied();
                    if c == '/' && next == Some('/') {
                        split.comment.extend(&chars[i..]);
                        i = chars.len();
                    } else if c == '/' && next == Some('*') {
                        state = LexState::BlockComment(1);
                        split.code.push(' ');
                        i += 2;
                    } else if c == '"' {
                        state = LexState::Str;
                        split.code.push('"');
                        i += 1;
                    } else if (c == 'r' || c == 'b') && !is_ident(chars.get(i.wrapping_sub(1))) {
                        // Possible raw/byte string or byte char prefix.
                        let (consumed, new_state) = match_prefixed_literal(&chars[i..]);
                        if let Some(new_state) = new_state {
                            split.code.push('"');
                            state = new_state;
                            i += consumed;
                        } else if consumed > 0 {
                            // b'x' byte-char literal, fully consumed.
                            split.code.push('\'');
                            i += consumed;
                        } else {
                            split.code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        i += consume_char_or_lifetime(&chars[i..], &mut split.code);
                    } else {
                        split.code.push(c);
                        i += 1;
                    }
                }
                LexState::BlockComment(depth) => {
                    let c = chars[i];
                    let next = chars.get(i + 1).copied();
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            LexState::Code
                        } else {
                            LexState::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = LexState::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        split.comment.push(c);
                        i += 1;
                    }
                }
                LexState::Str => {
                    let c = chars[i];
                    if c == '\\' {
                        i += 2;
                    } else if c == '"' {
                        split.code.push('"');
                        state = LexState::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if chars[i] == '"'
                        && chars[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&h| h == '#')
                            .count()
                            == hashes
                    {
                        split.code.push('"');
                        state = LexState::Code;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        out.push(split);
    }
    out
}

fn is_ident(c: Option<&char>) -> bool {
    c.is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

/// Matches `r"`, `r#"`, `br"`, `b"`, `b'` … at the start of `rest`.
/// Returns (chars consumed, new lexer state).  `(0, None)` means "not a
/// literal prefix" and `(n, None)` means "self-contained literal of n
/// chars" (a byte char).
fn match_prefixed_literal(rest: &[char]) -> (usize, Option<LexState>) {
    let mut i = 0;
    if rest[0] == 'b' {
        match rest.get(1) {
            Some('"') => return (2, Some(LexState::Str)),
            Some('\'') => {
                // b'x' or b'\n': consume through the closing quote.
                let mut j = 2;
                if rest.get(j) == Some(&'\\') {
                    j += 1;
                }
                while j < rest.len() && rest[j] != '\'' {
                    j += 1;
                }
                return (j + 1, None);
            }
            Some('r') => i = 2,
            _ => return (0, None),
        }
    }
    // At `r`: raw string with optional hashes.
    if rest.get(i) != Some(&'r') {
        return (0, None);
    }
    let mut hashes = 0usize;
    let mut j = i + 1;
    while rest.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if rest.get(j) == Some(&'"') {
        (j + 1, Some(LexState::RawStr(hashes)))
    } else {
        (0, None)
    }
}

/// Distinguishes `'a'` / `'\n'` char literals from `'a` lifetimes.
/// Returns the number of chars consumed; pushes a placeholder for char
/// literals and the raw quote for lifetimes.
fn consume_char_or_lifetime(rest: &[char], code: &mut String) -> usize {
    if rest.get(1) == Some(&'\\') {
        // Escaped char literal: consume through the closing quote.
        let mut j = 2;
        while j < rest.len() && rest[j] != '\'' {
            j += 1;
        }
        code.push('\'');
        j + 1
    } else if rest.len() >= 3 && rest[2] == '\'' {
        code.push('\'');
        3
    } else {
        // A lifetime (or a stray quote): keep scanning normally.
        code.push('\'');
        1
    }
}

/// Attribute prefixes that open a test-only region.
const TEST_ATTRS: [&str; 4] = ["#[cfg(test)", "#[cfg(all(test", "#[cfg(any(test", "#[test]"];

/// Scans one file's source, returning its violations.  `rel_path` is
/// the workspace-relative forward-slash path (drives per-path rule
/// exemptions).  `unused-pub` needs the whole workspace: [`run`]
/// checks it.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Violation> {
    scan(rel_path, source, &mut HashMap::new()).0
}

/// A `pub` item declared outside test code.
struct PubItem {
    line: usize,
    kind: &'static str,
    name: String,
    /// An allow directive covers it.
    allowed: bool,
}

/// [`scan_source`], also counting every identifier token into `counts`
/// and returning the file's `pub` items.
fn scan(
    rel_path: &str,
    source: &str,
    counts: &mut HashMap<String, usize>,
) -> (Vec<Violation>, Vec<PubItem>) {
    let lines = split_source(source);
    let mut violations = Vec::new();
    let mut items = Vec::new();

    // Directive map: allows[line] = rules allowed on that line.
    let mut allows: Vec<Vec<Rule>> = vec![Vec::new(); lines.len()];
    for (idx, split) in lines.iter().enumerate() {
        for (rule_ids, bad) in parse_directives(&split.comment) {
            for id in rule_ids {
                match Rule::from_id(&id) {
                    Some(rule) => allows[idx].push(rule),
                    None => violations.push(Violation {
                        file: rel_path.to_string(),
                        line: idx + 1,
                        rule: Rule::Directive,
                        message: format!(
                            "unknown rule `{id}` in crac-lint allow directive (known: {})",
                            Rule::ALL.map(Rule::id).join(", ")
                        ),
                    }),
                }
            }
            if bad {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: Rule::Directive,
                    message: "malformed crac-lint directive (expected `crac-lint: allow(rule, …)`)"
                        .to_string(),
                });
            }
        }
    }
    let allowed = |idx: usize, rule: Rule| -> bool {
        allows[idx].contains(&rule) || (idx > 0 && allows[idx - 1].contains(&rule))
    };

    // Test-region tracking over code text.
    let mut depth: i64 = 0;
    let mut in_test = false;
    let mut test_depth: i64 = 0;
    let mut pending_attr = false;
    let mut whole_file_test = false;

    for (idx, split) in lines.iter().enumerate() {
        let code = split.code.as_str();
        let trimmed = code.trim();
        if trimmed.starts_with("#![cfg(test)") {
            whole_file_test = true;
        }
        if !in_test && TEST_ATTRS.iter().any(|a| trimmed.contains(a)) {
            pending_attr = true;
        }
        let exempt = whole_file_test || in_test || pending_attr;
        count_idents(code, counts);

        // Update region state from this line's braces.
        for c in code.chars() {
            match c {
                '{' => {
                    if pending_attr && !in_test {
                        in_test = true;
                        test_depth = depth;
                        pending_attr = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if in_test && depth <= test_depth {
                        in_test = false;
                    }
                }
                ';' if pending_attr && !in_test => pending_attr = false,
                _ => {}
            }
        }

        if exempt {
            continue;
        }
        if let Some((kind, name)) = pub_item(code) {
            items.push(PubItem {
                line: idx + 1,
                kind,
                name: name.to_string(),
                allowed: allowed(idx, Rule::UnusedPub),
            });
        }
        for rule in Rule::ALL {
            if rule.path_exempt(rel_path) || allowed(idx, rule) {
                continue;
            }
            if let Some(message) = check_rule(rule, code) {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule,
                    message,
                });
            }
        }
    }
    (violations, items)
}

/// Item kinds `unused-pub` checks.
const PUB_ITEM_KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// The `(kind, name)` a line declares with a bare `pub`, if any
/// (`pub(crate)` and friends are left to rustc's `dead_code`).
fn pub_item(code: &str) -> Option<(&'static str, &str)> {
    let mut words = code.trim_start().strip_prefix("pub ")?.split_whitespace();
    let mut kind = words.next()?;
    // `pub const fn`, `pub unsafe fn` and `pub async fn` declare a `fn`.
    if matches!(kind, "const" | "unsafe" | "async") && words.clone().next() == Some("fn") {
        kind = words.next()?;
    }
    let kind = PUB_ITEM_KINDS.into_iter().find(|k| *k == kind)?;
    let mut name = words
        .next()?
        .split(|c: char| !(c.is_alphanumeric() || c == '_'));
    Some((kind, name.next()?)).filter(|(_, n)| !n.is_empty())
}

/// Counts every identifier token in `code` into `counts`.
fn count_idents(code: &str, counts: &mut HashMap<String, usize>) {
    for word in code.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        if word.starts_with(|c: char| c.is_alphabetic() || c == '_') {
            *counts.entry(word.to_string()).or_default() += 1;
        }
    }
}

/// The `unused-pub` rule: an item is unused when its declarations are
/// the only code tokens in the workspace that name it.
fn unused_pub(items: &[(String, PubItem)], counts: &HashMap<String, usize>) -> Vec<Violation> {
    let mut declared: HashMap<&str, usize> = HashMap::new();
    for (_, item) in items {
        *declared.entry(&item.name).or_default() += 1;
    }
    items
        .iter()
        .filter(|(_, item)| {
            !item.allowed && counts.get(&item.name) <= declared.get(item.name.as_str())
        })
        .map(|(rel, item)| Violation {
            file: rel.clone(),
            line: item.line,
            rule: Rule::UnusedPub,
            message: format!(
                "`pub {} {}` is named nowhere else in the workspace — delete it or justify \
                 with an allow directive",
                item.kind, item.name
            ),
        })
        .collect()
}

/// Finds allow directives in a line's comment text.
/// Returns (rule ids, malformed flag) per directive.
fn parse_directives(comment: &str) -> Vec<(Vec<String>, bool)> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("crac-lint:") {
        rest = &rest[pos + "crac-lint:".len()..];
        let body = rest.trim_start();
        if let Some(args) = body.strip_prefix("allow(") {
            match args.find(')') {
                Some(end) => {
                    let ids = args[..end]
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    out.push((ids, false));
                }
                None => out.push((Vec::new(), true)),
            }
        } else {
            out.push((Vec::new(), true));
        }
    }
    out
}

/// Is the byte before `pos` (if any) part of an identifier?
fn preceded_by_ident(code: &str, pos: usize) -> bool {
    code[..pos]
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Does `code` contain `needle` as a standalone token (not preceded or
/// followed by identifier characters)?
fn contains_word(code: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let pre_ok = !preceded_by_ident(code, start);
        let post_ok = !code[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

const STD_LOCK_TYPES: [&str; 6] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
];

fn check_rule(rule: Rule, code: &str) -> Option<String> {
    match rule {
        Rule::RawLock => {
            if code.contains("std::sync::") {
                for ty in STD_LOCK_TYPES {
                    if contains_word(code, ty) {
                        return Some(format!(
                            "raw `std::sync::{ty}` outside crac-sync — use the named, \
                             instrumented `crac_sync` wrappers"
                        ));
                    }
                }
            }
            None
        }
        Rule::NoUnwrap => {
            if code.contains(".unwrap()") {
                Some(
                    ".unwrap() in non-test library code — classify the error or justify with an \
                     allow directive"
                        .to_string(),
                )
            } else if code.contains(".expect(") {
                Some(
                    ".expect(…) in non-test library code — classify the error or justify with an \
                     allow directive"
                        .to_string(),
                )
            } else if let Some(pos) = code.find("panic!(") {
                (!preceded_by_ident(code, pos)).then(|| {
                    "panic!(…) in non-test library code — classify the error or justify with an \
                     allow directive"
                        .to_string()
                })
            } else {
                None
            }
        }
        Rule::RawSpawn => code.contains("thread::spawn").then(|| {
            "thread::spawn outside approved scoped-spawn seams — prefer std::thread::scope or a \
             justified allow directive"
                .to_string()
        }),
        Rule::RawInstant => code.contains("Instant::now()").then(|| {
            "Instant::now() timing outside crac-obs/crac-sync — record through an obs Span or \
             justify with an allow directive"
                .to_string()
        }),
        Rule::UnusedPub | Rule::Directive => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        scan_source(path, src)
            .into_iter()
            .map(|v| v.rule.id())
            .collect()
    }

    const LIB: &str = "crates/demo/src/lib.rs";

    // ---- raw-lock -------------------------------------------------------

    #[test]
    fn raw_lock_flags_std_locks() {
        assert_eq!(
            rules_hit(LIB, "use std::sync::{Arc, Mutex};\n"),
            ["raw-lock"]
        );
        assert_eq!(
            rules_hit(LIB, "fn f(x: &std::sync::RwLock<u8>) {}\n"),
            ["raw-lock"]
        );
        assert_eq!(
            rules_hit(LIB, "static C: std::sync::Condvar = …;\n"),
            ["raw-lock"]
        );
    }

    #[test]
    fn raw_lock_ignores_atomics_channels_and_crac_sync() {
        assert!(rules_hit(LIB, "use std::sync::atomic::AtomicU64;\n").is_empty());
        assert!(rules_hit(LIB, "use std::sync::{mpsc, Arc};\n").is_empty());
        assert!(rules_hit(LIB, "use crac_sync::{Condvar, Mutex, RwLock};\n").is_empty());
    }

    #[test]
    fn raw_lock_exempts_the_sync_crate_itself() {
        const SYNC: &str = "crates/sync/src/lib.rs";
        assert!(rules_hit(SYNC, "use std::sync::{Mutex, RwLock};\n").is_empty());
        assert!(rules_hit(SYNC, "inner: std::sync::Condvar,\n").is_empty());
    }

    #[test]
    fn raw_lock_allow_escape_works() {
        let src = "use std::sync::Mutex; // crac-lint: allow(raw-lock) — detector internals\n";
        assert!(rules_hit(LIB, src).is_empty());
    }

    // ---- no-unwrap ------------------------------------------------------

    #[test]
    fn no_unwrap_flags_unwrap_expect_panic() {
        assert_eq!(rules_hit(LIB, "let x = y.unwrap();\n"), ["no-unwrap"]);
        assert_eq!(
            rules_hit(LIB, "let x = y.expect(\"reason\");\n"),
            ["no-unwrap"]
        );
        assert_eq!(rules_hit(LIB, "panic!(\"boom\");\n"), ["no-unwrap"]);
    }

    #[test]
    fn no_unwrap_ignores_lookalikes() {
        assert!(rules_hit(LIB, "let x = y.unwrap_or(0);\n").is_empty());
        assert!(rules_hit(LIB, "let x = y.unwrap_or_else(|| 0);\n").is_empty());
        assert!(rules_hit(LIB, "let x = r.expect_err(\"must fail\");\n").is_empty());
        assert!(rules_hit(LIB, "let s = \"docs say .unwrap() is fine here\";\n").is_empty());
        assert!(rules_hit(LIB, "// a comment about .unwrap() and panic!(…)\n").is_empty());
    }

    #[test]
    fn no_unwrap_exempts_test_modules_and_test_fns() {
        let src = "\
fn lib_code() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        x.unwrap();
        panic!(\"in tests this is fine\");
    }
}
";
        assert!(rules_hit(LIB, src).is_empty());
        let after = "\
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
fn lib_code() { y.unwrap(); }
";
        assert_eq!(rules_hit(LIB, after), ["no-unwrap"]);
    }

    #[test]
    fn no_unwrap_allow_on_preceding_comment_line() {
        let src = "\
// crac-lint: allow(no-unwrap) — invariant: map key inserted above
let v = map.get(&k).unwrap();
";
        assert!(rules_hit(LIB, src).is_empty());
    }

    // ---- raw-spawn ------------------------------------------------------

    #[test]
    fn raw_spawn_flags_bare_spawns_but_not_scoped() {
        assert_eq!(
            rules_hit(LIB, "std::thread::spawn(move || {});\n"),
            ["raw-spawn"]
        );
        assert_eq!(rules_hit(LIB, "thread::spawn(worker);\n"), ["raw-spawn"]);
        assert!(rules_hit(LIB, "std::thread::scope(|s| { s.spawn(|| {}); });\n").is_empty());
    }

    #[test]
    fn raw_spawn_allow_escape_works() {
        let src = "std::thread::spawn(run); // crac-lint: allow(raw-spawn) — joined at finish()\n";
        assert!(rules_hit(LIB, src).is_empty());
    }

    // ---- raw-instant ----------------------------------------------------

    #[test]
    fn raw_instant_flags_adhoc_timing_outside_obs() {
        assert_eq!(
            rules_hit(LIB, "let t0 = Instant::now();\n"),
            ["raw-instant"]
        );
        assert!(rules_hit("crates/obs/src/span.rs", "let t0 = Instant::now();\n").is_empty());
        assert!(rules_hit("crates/sync/src/lib.rs", "let t0 = Instant::now();\n").is_empty());
    }

    // ---- directives -----------------------------------------------------

    #[test]
    fn unknown_allow_rule_is_itself_a_violation() {
        let src = "x.unwrap(); // crac-lint: allow(no-unwarp)\n";
        let v = scan_source(LIB, src);
        assert!(v.iter().any(|v| v.rule == Rule::Directive));
        assert!(
            v.iter().any(|v| v.rule == Rule::NoUnwrap),
            "typo must not suppress"
        );
    }

    #[test]
    fn malformed_directive_is_reported() {
        let src = "// crac-lint: allow(no-unwrap\n";
        let v = scan_source(LIB, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Directive);
    }

    #[test]
    fn one_directive_can_allow_multiple_rules() {
        let src = "// crac-lint: allow(raw-spawn, raw-instant)\nthread::spawn(f); let t = Instant::now();\n";
        assert!(rules_hit(LIB, src).is_empty());
    }

    // ---- lexer ----------------------------------------------------------

    #[test]
    fn lexer_handles_raw_strings_and_block_comments() {
        let src = "\
let corpus = r#\"x.unwrap() std::sync::Mutex\"#;
/* block comment with panic!(…)
   spanning lines with thread::spawn */
let lifetime: &'static str = \"ok\";
let ch = 'x';
let esc = '\\n';
";
        assert!(rules_hit(LIB, src).is_empty());
    }

    #[test]
    fn lexer_still_sees_code_after_a_string() {
        let src = "let x = format!(\"{}\", v).parse::<u8>().unwrap();\n";
        assert_eq!(rules_hit(LIB, src), ["no-unwrap"]);
    }

    // ---- unused-pub -----------------------------------------------------

    #[test]
    fn unused_pub_flags_only_items_nothing_names() {
        let root =
            std::env::temp_dir().join(format!("crac-lint-unused-pub-{}", std::process::id()));
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write(
            "crates/demo/src/lib.rs",
            "\
pub fn used() {}
pub fn unused() {}
pub struct OnlyFromTests;
// crac-lint: allow(unused-pub) — kept for an out-of-tree caller
pub const ALLOWED: u8 = 0;
pub fn caller() { used(); }
/// Docs naming `unused()` do not count, nor does \"unused\".
pub fn caller_docs() { let _ = \"unused\"; }
#[cfg(test)]
mod tests {
    pub fn test_helper() {}
}
",
        );
        write(
            "crates/demo/tests/it.rs",
            "#[test]\nfn t() { let _ = demo::OnlyFromTests; demo::caller(); demo::caller_docs(); }\n",
        );
        let outcome = run(&root);
        std::fs::remove_dir_all(&root).unwrap();
        let hits: Vec<String> = outcome
            .unwrap()
            .violations
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(
            hits[0].starts_with("crates/demo/src/lib.rs:2: [unused-pub] `pub fn unused`"),
            "{hits:?}"
        );
    }

    #[test]
    fn unused_pub_reads_qualified_declarations() {
        assert_eq!(pub_item("pub const fn f() {}"), Some(("fn", "f")));
        assert_eq!(pub_item("    pub const N: u8 = 1;"), Some(("const", "N")));
        assert_eq!(pub_item("pub struct S<T>(T);"), Some(("struct", "S")));
        assert_eq!(pub_item("pub(crate) fn h() {}"), None);
        assert_eq!(pub_item("pub field: u8,"), None);
    }

    #[test]
    fn violation_reports_file_and_line() {
        let src = "fn ok() {}\nlet x = y.unwrap();\n";
        let v = scan_source(LIB, src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(v[0].file, LIB);
        assert!(v[0].to_string().contains("lib.rs:2: [no-unwrap]"));
    }
}
